"""Server admission/request scheduler: unit + RPC-integration tests."""

import pytest

from repro.cluster import Cluster
from repro.nas.server.sched import RequestScheduler
from repro.net.packet import Message, MsgKind
from repro.params import KB, default_params
from repro.proto.rpc import RPCError
from repro.sim import Simulator, Tracer


def msg(src, xid=0):
    return Message(MsgKind.ETH, src, "server", 128,
                   meta={"rpc": "req", "rpc_xid": xid})


def make_cluster(system="nfs", n_clients=4, policy="fifo", threads=2,
                 queue=8, **client_kwargs):
    p = default_params()
    p.sched.policy = policy
    p.sched.service_threads = threads
    p.sched.max_queue = queue
    return Cluster(p, system=system, n_clients=n_clients, block_size=4 * KB,
                   client_kwargs=client_kwargs or None)


def run_reads(cluster, name="f", blocks=8, per_client=None):
    """Every client reads the file; returns the list of result lists."""
    sim = cluster.sim
    out = [None] * len(cluster.clients)

    def client_main(idx):
        client = cluster.clients[idx]
        yield from client.open(name)
        got = []
        n = per_client or blocks
        for i in range(n):
            got.append((yield from client.read(name, (i % blocks) * 4 * KB,
                                               4 * KB)))
        out[idx] = got

    def main():
        procs = [sim.process(client_main(i), name=f"t{i}")
                 for i in range(len(cluster.clients))]
        yield sim.all_of(procs)

    sim.run_process(main())
    return out


class TestSchedulerUnit:
    def test_policy_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RequestScheduler(sim, policy="srpt")
        with pytest.raises(ValueError):
            RequestScheduler(sim, service_threads=0)
        with pytest.raises(ValueError):
            RequestScheduler(sim, max_queue=0)

    def test_fifo_serves_in_arrival_order(self):
        sched = RequestScheduler(Simulator(), policy="fifo")
        for i in range(5):
            assert sched.admit(msg(f"c{i}", xid=i))
        order = [sched.pop()[0].meta["rpc_xid"] for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]
        assert sched.pop() is None

    def test_fair_round_robin_interleaves_clients(self):
        sched = RequestScheduler(Simulator(), policy="fair")
        # One greedy client with a deep backlog, two polite ones.
        for i in range(4):
            sched.admit(msg("greedy", xid=i))
        sched.admit(msg("polite1", xid=100))
        sched.admit(msg("polite2", xid=200))
        served = [sched.pop()[0].src for _ in range(6)]
        # Both polite clients are served within one rotation, not after
        # the greedy client's whole backlog.
        assert served.index("polite1") <= 2
        assert served.index("polite2") <= 2
        assert served.count("greedy") == 4

    def test_bounded_queue_rejects_overflow(self):
        sched = RequestScheduler(Simulator(), max_queue=2)
        assert sched.admit(msg("a"))
        assert sched.admit(msg("b"))
        assert not sched.admit(msg("c"))
        assert sched.stats.get("rejected") == 1
        assert sched.stats.get("admitted") == 2
        assert len(sched) == 2

    def test_peak_watermarks(self):
        sched = RequestScheduler(Simulator(), max_queue=8)
        for i in range(3):
            sched.admit(msg("a", xid=i))
        assert sched.peak_qdepth == 3
        sched.note_active(+1)
        sched.note_active(+1)
        sched.note_active(-1)
        assert sched.peak_active == 2
        assert sched.active == 1

    def test_drop_all_empties_every_queue(self):
        for policy in ("fifo", "fair"):
            sched = RequestScheduler(Simulator(), policy=policy)
            for i in range(4):
                sched.admit(msg(f"c{i % 2}", xid=i))
            assert sched.drop_all() == 4
            assert len(sched) == 0
            assert sched.pop() is None
            assert sched.stats.get("dropped_at_crash") == 4

    def test_gauges_expose_qdepth_and_active(self):
        sched = RequestScheduler(Simulator())
        gauges = sched.gauges()
        assert set(gauges) == {"qdepth", "active", "rejected_s"}
        sched.admit(msg("a"))
        sched.note_active(+1)
        assert gauges["qdepth"]() == 1.0
        assert gauges["active"]() == 1.0


class TestRPCIntegration:
    def test_cluster_without_policy_has_no_scheduler(self):
        cluster = Cluster(system="nfs", n_clients=1, block_size=4 * KB)
        assert cluster.scheduler is None
        assert cluster.server.rpc.scheduler is None

    def test_attach_twice_rejected(self):
        cluster = make_cluster(n_clients=1)
        with pytest.raises(RPCError):
            cluster.server.rpc.attach_scheduler(cluster.scheduler)

    @pytest.mark.parametrize("policy", ["fifo", "fair"])
    def test_all_reads_complete_and_return_correct_data(self, policy):
        cluster = make_cluster(n_clients=4, policy=policy, threads=2,
                               queue=64, bcache_entries=2)
        cluster.create_file("f", 32 * KB)
        results = run_reads(cluster, blocks=8)
        for got in results:
            assert got == [("f", i, 0) for i in range(8)]

    def test_thread_pool_bounds_concurrency(self):
        cluster = make_cluster(n_clients=8, policy="fifo", threads=2,
                               queue=64, bcache_entries=2)
        cluster.create_file("f", 32 * KB)
        run_reads(cluster, blocks=8)
        sched = cluster.scheduler
        assert sched.peak_active <= 2
        # With 8 clients contending for 2 threads, requests really queue.
        assert sched.peak_qdepth > 1

    def test_overload_rejects_and_clients_retry_to_completion(self):
        cluster = make_cluster(n_clients=8, policy="fifo", threads=1,
                               queue=2, bcache_entries=2)
        cluster.create_file("f", 32 * KB)
        results = run_reads(cluster, blocks=8)
        sched = cluster.scheduler
        assert sched.stats.get("rejected") > 0
        rejected_calls = sum(c.rpc.stats.get("rejected_calls")
                             for c in cluster.clients)
        assert rejected_calls > 0
        # Load shedding is loss-free end to end: every read completed
        # with correct data despite the busy replies.
        for got in results:
            assert got == [("f", i, 0) for i in range(8)]

    def test_admitted_conserved_through_dispatch_and_completion(self):
        cluster = make_cluster(n_clients=6, policy="fair", threads=2,
                               queue=4, bcache_entries=2)
        cluster.create_file("f", 32 * KB)
        run_reads(cluster, blocks=8)
        stats = cluster.scheduler.stats
        assert stats.get("admitted") == stats.get("dispatched")
        assert stats.get("dispatched") == stats.get("completed")
        assert len(cluster.scheduler) == 0

    def test_reject_without_policy_raises_rpc_error(self):
        cluster = make_cluster(n_clients=4, policy="fifo", threads=1,
                               queue=1, bcache_entries=2)
        # Strip the backoff policy: a rejection must surface, not hang.
        for client in cluster.clients:
            client.rpc.reject_retry = None
        cluster.create_file("f", 64 * KB)
        with pytest.raises(RPCError, match="rejected"):
            run_reads(cluster, blocks=16)

    def test_queue_wait_attributed_to_span(self):
        cluster = make_cluster(n_clients=4, policy="fifo", threads=1,
                               queue=64, bcache_entries=2)
        cluster.create_file("f", 32 * KB)
        tracer = Tracer.attach(cluster.sim)
        run_reads(cluster, blocks=8)
        marks = [stage for span in tracer.finished_spans()
                 for _, _, stage, _ in span.marks]
        assert "sched.queue" in marks

    def test_rejection_marked_on_span(self):
        cluster = make_cluster(n_clients=8, policy="fifo", threads=1,
                               queue=1, bcache_entries=2)
        cluster.create_file("f", 32 * KB)
        tracer = Tracer.attach(cluster.sim)
        run_reads(cluster, blocks=8)
        marks = [stage for span in tracer.finished_spans()
                 for _, _, stage, _ in span.marks]
        assert "sched.reject" in marks and "rpc.rejected" in marks

    def test_metrics_registry_exports_sched_counters(self):
        cluster = make_cluster(n_clients=2, policy="fifo", threads=1,
                               queue=4, bcache_entries=2)
        cluster.create_file("f", 16 * KB)
        run_reads(cluster, blocks=4)
        snap = cluster.metrics.snapshot()
        assert snap["server.sched.admitted"] > 0

    def test_sampler_probes_sched_gauges(self):
        cluster = make_cluster(n_clients=2, policy="fifo", threads=1,
                               queue=4, bcache_entries=2)
        cluster.create_file("f", 16 * KB)
        sampler = cluster.attach_sampler(interval_us=10.0)
        names = set(sampler.series)
        assert {"server.sched.qdepth", "server.sched.active",
                "server.sched.rejected_s"} <= names
