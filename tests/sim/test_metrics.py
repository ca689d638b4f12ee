"""Tests for the unified metrics registry."""

import json

import pytest

from repro.cluster import Cluster
from repro.params import KB
from repro.sim import (
    BusyTracker,
    Counter,
    LatencyStats,
    MetricsRegistry,
    Simulator,
)


class TestMetricsRegistry:
    def test_register_and_get(self):
        reg = MetricsRegistry()
        counter = Counter()
        assert reg.register("server.ops", counter) is counter
        counter.incr("reads")
        assert reg.snapshot() == {"server.ops.reads": 1}
        assert "server.ops" in reg and len(reg) == 1

    def test_duplicate_and_empty_names_rejected(self):
        reg = MetricsRegistry()
        reg.register("a", Counter())
        with pytest.raises(ValueError):
            reg.register("a", Counter())
        with pytest.raises(ValueError):
            reg.register("", Counter())

    def test_snapshot_flattens_hierarchical_names(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.register("server.cache", Counter()).incr("hits", 3)
        reg.register("client0.read_us", LatencyStats()).record(10.0)
        reg.register("server.cpu", BusyTracker(sim)).add(5.0,
                                                         category="copy")
        snap = reg.snapshot()
        assert snap["server.cache.hits"] == 3
        assert snap["client0.read_us.mean"] == 10.0
        assert snap["server.cpu.busy_us"] == 5.0
        assert snap["server.cpu.by.copy"] == 5.0

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.register("server.ops", Counter()).incr("reads", 7)
        reg.register("lat", LatencyStats()).record(4.0)
        restored = json.loads(json.dumps(reg.snapshot()))
        assert restored == reg.snapshot()

    def test_subtree(self):
        reg = MetricsRegistry()
        reg.register("server.cache", Counter()).incr("hits")
        reg.register("client0.cache", Counter()).incr("hits")
        sub = reg.subtree("server.cache")
        assert sub == {"server.cache.hits": 1}

    def test_unsupported_instrument_rejected(self):
        with pytest.raises(TypeError):
            MetricsRegistry.instrument_values(object())


class TestClusterRegistry:
    def test_cluster_builds_registry_over_all_hosts(self):
        cluster = Cluster(system="odafs", n_clients=2, block_size=4 * KB,
                          client_kwargs={"cache_blocks": 4})
        for expected in ("server.cpu", "server.nic", "server.disk",
                         "server.cache", "server.ops", "server.rpc",
                         "client0.cpu", "client0.nic", "client0.ops",
                         "client0.rpc", "client0.cache", "client1.cpu"):
            assert expected in cluster.metrics

    def test_registry_reads_through_to_live_instruments(self):
        cluster = Cluster(system="odafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 4})
        cluster.create_file("f", 16 * KB)
        client = cluster.clients[0]

        def proc():
            for i in range(4):
                yield from client.read("f", i * 4 * KB, 4 * KB)

        cluster.sim.run_process(proc())
        snap = cluster.metrics.snapshot()
        assert snap["client0.ops.reads"] == 4
        assert snap["server.ops.reads"] >= 4
        assert snap["server.cache.hits"] >= 4
        assert snap["client0.nic.dma_bytes"] > 0
        assert snap["server.cpu.busy_us"] > 0
        # The whole snapshot must be JSON-exportable.
        assert json.loads(json.dumps(snap)) == snap

    def test_nfs_client_has_no_cache_entry(self):
        cluster = Cluster(system="nfs", block_size=4 * KB)
        assert "client0.cache" not in cluster.metrics
