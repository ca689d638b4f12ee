"""Injector: adapters, schedules, recovery, and zero-impact attachment."""

import pytest

from repro.cluster import Cluster
from repro.faults import FaultSchedule, Injector
from repro.params import KB
from repro.proto.rpc import RPCError


def make_cluster(system="nfs", **kw):
    kw.setdefault("block_size", 4 * KB)
    if system in ("dafs", "odafs"):
        kw.setdefault("client_kwargs",
                      {"cache_blocks": 8, "rpc_read_mode": "direct"})
    return Cluster(system=system, **kw)


def read_all(cluster, name="f", blocks=8, passes=1):
    client = cluster.clients[0]
    state = {"ok": 0, "failed": 0}

    def proc():
        yield from client.open(name)
        for _ in range(passes):
            for i in range(blocks):
                try:
                    data = yield from client.read(name, i * 4 * KB, 4 * KB)
                except RPCError:
                    state["failed"] += 1
                else:
                    assert data == (name, i, 0)
                    state["ok"] += 1

    cluster.sim.run_process(proc())
    return state


# -- link ---------------------------------------------------------------------


def test_link_drop_recovered_by_retransmission():
    cluster = make_cluster("nfs")
    cluster.create_file("f", 32 * KB)
    inj = Injector(cluster)
    inj.enable_resilience()
    inj.link.drop_next = 1          # exactly one lost frame
    state = read_all(cluster, blocks=8)
    assert state == {"ok": 8, "failed": 0}
    assert inj.stats.get("link.drop") == 1
    assert cluster.clients[0].rpc.stats.get("retransmits") >= 1


def test_link_delay_slows_but_does_not_break():
    fast = make_cluster("nfs")
    fast.create_file("f", 32 * KB)
    base = read_all(fast, blocks=8)
    slow = make_cluster("nfs")
    slow.create_file("f", 32 * KB)
    inj = Injector(slow)
    inj.enable_resilience()
    inj.link.delay_p = 1.0
    inj.link.delay_us = 100.0
    state = read_all(slow, blocks=8)
    assert base == state == {"ok": 8, "failed": 0}
    assert slow.sim.now > fast.sim.now
    assert inj.stats.get("link.delay") > 0


# -- NIC ----------------------------------------------------------------------


def test_doorbell_stall_adds_latency():
    plain = make_cluster("nfs")
    plain.create_file("f", 16 * KB)
    read_all(plain, blocks=4)
    stalled = make_cluster("nfs")
    stalled.create_file("f", 16 * KB)
    inj = Injector(stalled)
    inj.nic(stalled.client_hosts[0]).stall_next = 1
    inj.nic(stalled.client_hosts[0]).stall_us = 500.0
    read_all(stalled, blocks=4)
    assert inj.stats.get("nic.doorbell_stall") == 1
    assert stalled.sim.now == pytest.approx(plain.sim.now + 500.0)


def test_ordma_storm_falls_back_to_rpc():
    cluster = make_cluster("odafs")
    cluster.create_file("f", 64 * KB)
    inj = Injector(cluster)
    inj.enable_resilience()
    # Every optimistic access faults for the first 4 attempts.
    inj.nic(cluster.server_host).ordma_reject_next = 4
    # Two passes through a tiny client cache: pass 2 goes optimistic.
    state = read_all(cluster, blocks=16, passes=2)
    assert state == {"ok": 32, "failed": 0}
    assert inj.stats.get("nic.ordma_reject") == 4
    assert cluster.clients[0].stats.get("ordma_faults") == 4
    # Recovery refreshed the references: later fills used ORDMA again.
    assert cluster.clients[0].stats.get("ordma_reads") > 0


# -- disk ---------------------------------------------------------------------


def test_transient_disk_error_is_retried():
    cluster = make_cluster("nfs", server_cache_blocks=4)
    cluster.create_file("f", 32 * KB, warm=False)   # cold: reads hit disk
    inj = Injector(cluster)
    inj.enable_resilience()
    inj.disk_faults(0).error_next = 1
    state = read_all(cluster, blocks=8)
    assert state == {"ok": 8, "failed": 0}
    assert inj.stats.get("disk.io_error") == 1
    assert cluster.disk.stats.get("io_errors") == 1


def test_persistent_disk_error_surfaces_as_rpc_error():
    cluster = make_cluster("nfs", server_cache_blocks=4)
    cluster.create_file("f", 16 * KB, warm=False)
    inj = Injector(cluster)
    inj.enable_resilience()
    inj.disk_errors(1.0)                    # every attempt fails
    inj.disk_faults(0).max_retries = 2
    state = read_all(cluster, blocks=4)
    # The server's handler fault becomes an rpc_error reply, not a hang
    # and not a dead serve loop.
    assert state["ok"] == 0
    assert state["failed"] == 4
    assert cluster.server.rpc.stats.get("handler_faults") == 4


def test_disk_delay_spike_slows_cold_reads():
    cold = make_cluster("nfs", server_cache_blocks=4)
    cold.create_file("f", 16 * KB, warm=False)
    read_all(cold, blocks=4)
    spiky = make_cluster("nfs", server_cache_blocks=4)
    spiky.create_file("f", 16 * KB, warm=False)
    inj = Injector(spiky)
    inj.enable_resilience()
    inj.disk_delays(1.0, spike_us=2000.0)
    read_all(spiky, blocks=4)
    assert inj.stats.get("disk.delay") == 4
    assert spiky.sim.now > cold.sim.now


# -- server crash -------------------------------------------------------------


def test_server_crash_restart_and_cache_loss():
    cluster = make_cluster("nfs")
    cluster.create_file("f", 32 * KB)       # warm: 8 cached blocks
    inj = Injector(cluster)
    inj.enable_resilience()
    inj.schedule_server_crash(FaultSchedule.at([200.0]),
                              downtime_us=1500.0)
    inj.arm()
    state = read_all(cluster, blocks=8, passes=2)
    assert state == {"ok": 16, "failed": 0}
    rpc = cluster.server.rpc.stats
    assert rpc.get("crashes") == 1
    assert rpc.get("restarts") == 1
    assert inj.stats.get("server.crash") == 1
    # The file cache did not survive: blocks were lost and refilled.
    assert inj.stats.get("server.cache_blocks_lost") == 8
    assert cluster.clients[0].rpc.stats.get("retransmits") >= 1


def test_server_crash_invalidates_odafs_references():
    # Client cache smaller than the file so pass 2 actually refills.
    cluster = make_cluster(
        "odafs", client_kwargs={"cache_blocks": 4,
                                "rpc_read_mode": "direct"})
    cluster.create_file("f", 32 * KB)
    inj = Injector(cluster)
    inj.enable_resilience()
    client = cluster.clients[0]

    def proc():
        yield from client.open("f")
        # Pass 1 populates the reference directory.
        for i in range(8):
            yield from client.read("f", i * 4 * KB, 4 * KB)
        # Crash: the export map is torn down with the cache.
        inj.server_faults(0).crash_now(cluster.server.rpc, 1000.0)
        yield cluster.sim.timeout(2000.0)
        # Pass 2 (cold client cache) goes optimistic with stale refs.
        for i in range(8):
            data = yield from client.read("f", i * 4 * KB, 4 * KB)
            assert data == ("f", i, 0)

    cluster.sim.run_process(proc())
    assert inj.stats.get("server.cache_blocks_lost") == 8
    assert client.stats.get("ordma_faults") > 0


# -- scheduling API -----------------------------------------------------------


def test_schedule_after_arm_is_rejected():
    cluster = make_cluster("nfs")
    inj = Injector(cluster)
    inj.arm()
    with pytest.raises(RuntimeError):
        inj.schedule(FaultSchedule.at([1.0]), lambda: None)


# -- the zero-impact guarantee ------------------------------------------------


@pytest.mark.parametrize("system", ["nfs", "dafs", "odafs"])
def test_unconfigured_injector_is_bit_identical(system):
    """Attaching (and arming) an injector with no faults configured and
    no resilience enabled must not move a single event: same finish
    time, same metrics, to the last counter."""
    def run(with_injector):
        cluster = make_cluster(system)
        cluster.create_file("f", 32 * KB)
        if with_injector:
            inj = Injector(cluster)
            _ = inj.link                                # install adapters
            inj.disk_faults(0)
            inj.server_faults(0)
            inj.nic(cluster.server_host)
            inj.nic(cluster.client_hosts[0])
            inj.arm()
        read_all(cluster, blocks=8, passes=2)
        snap = cluster.metrics.snapshot()
        snap.pop("faults", None)
        return cluster.sim.now, snap

    assert run(False) == run(True)
