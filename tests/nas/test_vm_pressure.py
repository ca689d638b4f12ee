"""Tests for the server VM-pressure (reclaim) daemon."""

import pytest

from repro.cluster import Cluster
from repro.nas.server.vm_pressure import MemoryPressure
from repro.params import KB


def make_cluster():
    cluster = Cluster(system="odafs", block_size=4 * KB,
                      server_cache_blocks=40,
                      client_kwargs={"cache_blocks": 2})
    cluster.create_file("f", 32 * 4 * KB)
    return cluster


def test_daemon_reclaims_and_stops_with_workload():
    cluster = make_cluster()
    client = cluster.clients[0]

    def workload():
        for _ in range(4):
            for i in range(32):
                yield from client.read("f", i * 4 * KB, 4 * KB)

    proc = cluster.sim.process(workload())
    daemon = MemoryPressure(cluster.sim, cluster.cache, interval_us=500.0)
    daemon.start(stop_on=proc)
    cluster.sim.run()
    assert proc.triggered and proc.ok
    assert daemon.stats.get("reclaimed") > 0


def test_reclaim_causes_ordma_faults_but_correct_data():
    cluster = make_cluster()
    client = cluster.clients[0]
    results = []

    def workload():
        for _ in range(4):
            for i in range(32):
                data = yield from client.read("f", i * 4 * KB, 4 * KB)
                results.append((i, data))

    proc = cluster.sim.process(workload())
    daemon = MemoryPressure(cluster.sim, cluster.cache, interval_us=300.0,
                            rng=cluster.rand.stream("t"))
    daemon.start(stop_on=proc)
    cluster.sim.run()
    assert client.stats.get("ordma_faults") > 0
    for i, data in results:
        assert data == ("f", i, 0)  # every read returned the right block


def test_reclaimed_exports_are_shot_down():
    cluster = make_cluster()
    client = cluster.clients[0]

    def warm():
        for i in range(32):
            yield from client.read("f", i * 4 * KB, 4 * KB)

    cluster.sim.run_process(warm())
    shootdowns_before = cluster.cache.stats.get("tlb_shootdowns")
    cluster.cache.invalidate(("f", 0))
    assert cluster.cache.stats.get("tlb_shootdowns") > shootdowns_before


def test_double_start_rejected():
    cluster = make_cluster()
    daemon = MemoryPressure(cluster.sim, cluster.cache, interval_us=100.0)
    stop_on = cluster.sim.event()
    daemon.start(stop_on=stop_on)
    with pytest.raises(RuntimeError):
        daemon.start(stop_on=stop_on)


def test_parameter_validation():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        MemoryPressure(cluster.sim, cluster.cache, interval_us=0.0)
    with pytest.raises(ValueError):
        MemoryPressure(cluster.sim, cluster.cache, interval_us=10.0,
                       blocks_per_round=0)
