"""RPC timeout/retry semantics: backoff, dedup by xid, span evidence."""

import pytest

from repro.cluster import Cluster
from repro.faults import Injector
from repro.params import KB
from repro.proto.rpc import RetryPolicy, RPCTimeoutError
from repro.sim import RandomStreams, Tracer


def make_cluster(**kw):
    kw.setdefault("block_size", 4 * KB)
    return Cluster(system="nfs", **kw)


# -- RetryPolicy --------------------------------------------------------------


def resilient(cluster, **kw):
    """``enable_resilience(**kw)`` with the retry jitter zeroed, so the
    backoff lengths are exact."""
    inj = Injector(cluster)
    inj.enable_resilience(**kw)
    for client in cluster.clients:
        client.rpc.retry.jitter = 0.0
    return inj


def test_backoff_is_capped_exponential():
    policy = RetryPolicy(backoff_base_us=100.0, backoff_factor=2.0,
                         backoff_cap_us=400.0)
    assert [policy.backoff_us(a) for a in (1, 2, 3, 4, 5)] == \
        [100.0, 200.0, 400.0, 400.0, 400.0]


def test_backoff_jitter_is_seeded_and_bounded():
    def sequence():
        policy = RetryPolicy(backoff_base_us=100.0, backoff_factor=2.0,
                             backoff_cap_us=400.0, jitter=0.25,
                             rng=RandomStreams(5).stream("retry"))
        return [policy.backoff_us(a) for a in range(1, 6)]

    first, second = sequence(), sequence()
    assert first == second                       # same seed, same jitter
    nominal = [100.0, 200.0, 400.0, 400.0, 400.0]
    assert all(0.75 * n <= v <= 1.25 * n
               for v, n in zip(first, nominal))
    assert first != nominal                      # jitter actually applied


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout_us=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)


# -- duplicate suppression ----------------------------------------------------


def test_delayed_request_triggers_drc_replay_and_client_dedup():
    """A request delayed past the timeout is retransmitted; the late
    original is answered from the server's duplicate request cache and
    the client discards the extra reply by xid."""
    cluster = make_cluster()
    cluster.create_file("f", 16 * KB)
    inj = resilient(cluster, timeout_us=4000.0)
    inj.link.delay_next = 1
    inj.link.delay_us = 6000.0      # > timeout: forces a retransmission
    client = cluster.clients[0]

    def proc():
        yield from client.open("f")
        data = yield from client.read("f", 0, 4 * KB)
        return data

    assert cluster.sim.run_process(proc()) == ("f", 0, 0)
    rpc = client.rpc.stats
    assert rpc.get("retransmits") == 1
    # One of the two transmissions was served fresh, the other answered
    # from the DRC; whichever reply lost the race was suppressed.
    assert rpc.get("duplicate_replies") == 1
    assert cluster.server.rpc.stats.get("dup_replayed") == 1


def test_in_flight_duplicate_is_dropped_not_reexecuted():
    """A retransmission arriving while the original is still being
    served (slow cold read from disk) is dropped by the in-progress DRC
    entry — the handler runs once and one reply goes back."""
    cluster = make_cluster(server_cache_blocks=4)
    cluster.create_file("f", 16 * KB, warm=False)   # cold: ~5ms disk read
    resilient(cluster, timeout_us=2000.0)
    client = cluster.clients[0]

    def proc():
        yield from client.open("f")
        data = yield from client.read("f", 0, 4 * KB)
        return data

    assert cluster.sim.run_process(proc()) == ("f", 0, 0)
    server = cluster.server.rpc.stats
    assert server.get("dup_dropped") >= 1
    assert server.get("dup_replayed") == 0
    assert client.rpc.stats.get("retransmits") >= 1


def test_retry_budget_exhaustion_raises_timeout_error():
    cluster = make_cluster()
    cluster.create_file("f", 16 * KB)
    inj = resilient(cluster, timeout_us=1000.0, max_retries=2)
    inj.link_loss(1.0)              # nothing gets through, ever
    client = cluster.clients[0]

    def proc():
        try:
            yield from client.open("f")
        except RPCTimeoutError as exc:
            return str(exc)
        return None

    result = cluster.sim.run_process(proc())
    assert result is not None and "no reply after 2" in result
    assert client.rpc.stats.get("rpc_timeouts") == 1
    assert client.rpc.stats.get("retransmits") == 2


# -- span evidence ------------------------------------------------------------


def test_retransmission_shows_up_in_span_breakdown():
    cluster = make_cluster()
    cluster.create_file("f", 16 * KB)
    tracer = Tracer.attach(cluster.sim)
    inj = resilient(cluster, timeout_us=4000.0)
    client = cluster.clients[0]

    def proc():
        yield from client.open("f")
        inj.link.drop_next = 1      # lose the next request frame
        yield from client.read("f", 0, 4 * KB)

    cluster.sim.run_process(proc())
    read_spans = [s for s in tracer.finished_spans() if s.op == "read"]
    assert len(read_spans) == 1
    breakdown = read_spans[0].breakdown()
    # The wait-until-timeout and the backoff sleep are separate stages
    # on the critical path, and they sum into the span's duration.
    assert breakdown["rpc.timeout"] == pytest.approx(4000.0, abs=1.0)
    assert breakdown["rpc.backoff"] == pytest.approx(200.0, abs=1.0)
    assert sum(breakdown.values()) == pytest.approx(
        read_spans[0].duration)
