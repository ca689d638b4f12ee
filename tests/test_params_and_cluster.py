"""Tests for parameter handling and cluster wiring."""

import pytest

from repro.cluster import SYSTEMS, Cluster
from repro.hw.memory import PAGE_SIZE, Page
from repro.params import KB, MB, Params, default_params


class TestParams:
    def test_defaults_are_calibrated_values(self):
        params = default_params()
        assert params.net.link_bw == 250.0
        assert params.nic.pci_bw == 450.0
        assert params.net.gm_mtu == 4 * KB
        assert params.net.ip_fragment_payload == 8 * KB

    def test_copy_is_deep_for_nested_dataclasses(self):
        params = default_params()
        clone = params.copy()
        clone.net.link_bw = 1.0
        clone.host.interrupt_us = 99.0
        assert params.net.link_bw == 250.0
        assert params.host.interrupt_us == 5.0

    def test_copy_with_override(self):
        params = default_params()
        clone = params.copy(seed=42)
        assert clone.seed == 42
        assert params.seed == 2003

    def test_units(self):
        assert KB == 1024
        assert MB == 1_000_000  # decimal, matching 2 Gb/s = 250 MB/s


class TestCluster:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            Cluster(system="afs")

    def test_all_systems_construct(self):
        for system in SYSTEMS:
            kwargs = ({"cache_blocks": 4}
                      if system in ("dafs", "odafs") else {})
            cluster = Cluster(system=system, client_kwargs=kwargs)
            assert cluster.clients

    def test_only_odafs_exports_cache(self):
        odafs = Cluster(system="odafs",
                        client_kwargs={"cache_blocks": 4})
        dafs = Cluster(system="dafs", client_kwargs={"cache_blocks": 4})
        odafs.create_file("f", 4 * KB)
        dafs.create_file("f", 4 * KB)
        assert odafs.cache.export
        assert not dafs.cache.export
        assert odafs.server_host.nic.tpt.segment_count() >= 1

    def test_n_clients(self):
        cluster = Cluster(system="nfs", n_clients=3)
        assert len(cluster.clients) == 3
        assert [h.name for h in cluster.client_hosts] == \
            ["client0", "client1", "client2"]

    def test_warm_false_leaves_cache_cold(self):
        cluster = Cluster(system="dafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 4})
        cluster.create_file("cold", 16 * KB, warm=False)
        assert len(cluster.cache) == 0
        cluster.create_file("warm", 16 * KB, warm=True)
        assert len(cluster.cache) == 4

    def test_block_size_defaults_to_storage_param(self):
        params = default_params()
        cluster = Cluster(params, system="nfs")
        assert cluster.block_size == params.storage.server_cache_block

    def test_seed_controls_rand_streams(self):
        a = Cluster(default_params().copy(seed=1), system="nfs")
        b = Cluster(default_params().copy(seed=1), system="nfs")
        assert a.rand.stream("x").random() == b.rand.stream("x").random()


def _pages_per_block(block_size: int) -> int:
    return -(-block_size // PAGE_SIZE)


class TestConstructionCost:
    """Every GM/VI endpoint pins 128 receive buffers of 520 KB, which no
    one translates. Setting a cluster up may build pages only for the
    registered client cache blocks and the exported server blocks."""

    def test_odafs_set_up_builds_no_receive_ring_pages(self, monkeypatch):
        built = [0]
        init = Page.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Page, "__init__", counting_init)
        params = default_params()
        params.shard.n_servers = 4
        params.shard.placement = "stripe"
        clusters = [Cluster(system="odafs", n_clients=32),
                    Cluster(params, system="odafs", n_clients=8,
                            block_size=4 * KB, server_cache_blocks=16)]
        bound = 0
        for cluster in clusters:
            for i in range(64):
                cluster.create_file(f"f{i}", 4 * KB)
            for i in range(len(cluster.clients)):
                for _, sub in cluster.named_subclients(i):
                    bound += sub.cache.capacity_blocks * _pages_per_block(
                        sub.cache.block_size)
            for cache in cluster.caches:
                bound += cache.stats.get("exports") * _pages_per_block(
                    cache.block_size)
        assert 0 < built[0] <= bound
