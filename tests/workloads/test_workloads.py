"""Unit tests for the workload drivers."""

import pytest

from repro.cluster import Cluster
from repro.params import KB, default_params
from repro.workloads.bdb import BerkeleyDBJoinWorkload
from repro.workloads.postmark import PostMarkWorkload
from repro.workloads.sequential import SequentialReadWorkload
from repro.workloads.smallio import MultiClientReadWorkload


class TestSequential:
    def test_reports_sane_steady_state(self):
        cluster = Cluster(system="dafs", block_size=64 * KB,
                          server_cache_blocks=72,
                          client_kwargs={"cache_blocks": 0})
        cluster.create_file("f", 64 * 64 * KB)
        out = SequentialReadWorkload(cluster, "f", 64 * 64 * KB,
                                     64 * KB, window=8).run()
        assert 100.0 < out["throughput_mb_s"] < 250.0
        assert 0.0 <= out["client_cpu"] <= 1.0
        assert out["blocks"] == 64

    def test_misaligned_file_rejected(self):
        cluster = Cluster(system="dafs", block_size=4 * KB)
        with pytest.raises(ValueError):
            SequentialReadWorkload(cluster, "f", 10_000, 4096)

    def test_window_one_is_fully_synchronous(self):
        cluster = Cluster(system="dafs", block_size=4 * KB,
                          server_cache_blocks=40,
                          client_kwargs={"cache_blocks": 0})
        cluster.create_file("f", 32 * 4 * KB)
        out = SequentialReadWorkload(cluster, "f", 32 * 4 * KB, 4 * KB,
                                     window=1).run()
        # Synchronous 4 KB reads at ~144 us each => ~28 MB/s.
        assert out["throughput_mb_s"] < 40.0


class TestBerkeleyDB:
    def test_zero_copy_vs_full_copy(self):
        params = default_params()
        io = BerkeleyDBJoinWorkload.IO_BYTES

        def run(copy_bytes):
            cluster = Cluster(params.copy(), system="dafs", block_size=io,
                              server_cache_blocks=40,
                              client_kwargs={"cache_blocks": 0})
            cluster.create_file("db", 32 * io)
            return BerkeleyDBJoinWorkload(cluster, "db", 32,
                                          copy_bytes).run()

        light = run(1)
        heavy = run(BerkeleyDBJoinWorkload.RECORD_BYTES)
        assert heavy["throughput_mb_s"] < light["throughput_mb_s"]
        assert heavy["client_cpu"] > light["client_cpu"]

    def test_copy_bytes_validated(self):
        cluster = Cluster(system="dafs",
                          block_size=BerkeleyDBJoinWorkload.IO_BYTES)
        with pytest.raises(ValueError):
            BerkeleyDBJoinWorkload(cluster, "db", 8, copy_bytes=-1)
        with pytest.raises(ValueError):
            BerkeleyDBJoinWorkload(cluster, "db", 8,
                                   copy_bytes=61 * 1024 + 1)


class TestPostMark:
    def test_read_only_config_counts(self):
        cluster = Cluster(system="dafs", block_size=4 * KB,
                          server_cache_blocks=80,
                          client_kwargs={"cache_blocks": 16})
        workload = PostMarkWorkload(cluster, n_files=64, transactions=200)
        workload.setup()
        out = workload.run()
        assert out["reads"] == 200
        assert out["writes"] == 0
        assert out["txns_per_s"] > 0

    def test_mixed_workload_has_writes(self):
        cluster = Cluster(system="dafs", block_size=4 * KB,
                          server_cache_blocks=80,
                          client_kwargs={"cache_blocks": 16})
        workload = PostMarkWorkload(cluster, n_files=64, transactions=300,
                                    read_ratio=0.5)
        workload.setup()
        out = workload.run()
        assert out["writes"] > 30
        assert out["reads"] > 30
        assert out["reads"] + out["writes"] == 300

    def test_hit_ratio_tracks_cache_size(self):
        params = default_params()

        def run(cache_blocks):
            cluster = Cluster(params.copy(), system="dafs",
                              block_size=4 * KB, server_cache_blocks=140,
                              client_kwargs={"cache_blocks": cache_blocks})
            workload = PostMarkWorkload(cluster, n_files=128,
                                        transactions=800)
            workload.setup()
            return workload.run()["client_cache_hit_ratio"]

        small = run(32)   # 25% of the file set
        large = run(96)   # 75%
        assert small == pytest.approx(0.25, abs=0.08)
        assert large == pytest.approx(0.75, abs=0.08)

    def test_parameter_validation(self):
        cluster = Cluster(system="dafs", block_size=4 * KB)
        with pytest.raises(ValueError):
            PostMarkWorkload(cluster, n_files=8, read_ratio=1.5)
        with pytest.raises(ValueError):
            PostMarkWorkload(cluster, n_files=8, read_ratio=-0.1)

    def test_deterministic_given_seed(self):
        params = default_params()

        def run():
            cluster = Cluster(params.copy(), system="odafs",
                              block_size=4 * KB, server_cache_blocks=80,
                              client_kwargs={"cache_blocks": 16})
            workload = PostMarkWorkload(cluster, n_files=64,
                                        transactions=300)
            workload.setup()
            return workload.run()["txns_per_s"]

        assert run() == run()


class TestMultiClient:
    def test_two_clients_share_the_server(self):
        cluster = Cluster(system="odafs", n_clients=2, block_size=4 * KB,
                          server_cache_blocks=140,
                          client_kwargs={"cache_blocks": 16})
        cluster.create_file("big", 128 * 4 * KB)
        out = MultiClientReadWorkload(cluster, "big", 128 * 4 * KB,
                                      app_block_size=32 * KB).run()
        assert out["throughput_mb_s"] > 150.0
        assert len(out["client_cpus"]) == 2

    def test_block_alignment_validated(self):
        cluster = Cluster(system="dafs", n_clients=2, block_size=4 * KB)
        with pytest.raises(ValueError):
            MultiClientReadWorkload(cluster, "big", 100_000,
                                    app_block_size=32 * KB)


class TestSFS:
    def test_mix_roughly_respected(self, monkeypatch):
        from repro.workloads import sfs
        monkeypatch.setattr(sfs, "N_FILES", 64)
        cluster = Cluster(system="nfs", block_size=4 * KB,
                          server_cache_blocks=300)
        workload = sfs.SFSWorkload(cluster, ops_per_client=600)
        workload.setup()
        out = workload.run()
        counts = out["op_counts"]
        total = sum(counts.values())
        assert total == 600
        assert counts["read"] == pytest.approx(0.32 * total, rel=0.25)
        assert counts["lookup"] == pytest.approx(0.27 * total, rel=0.25)
        assert out["ops_per_s"] > 0

    def test_multi_client_increases_aggregate_ops(self, monkeypatch):
        from repro.workloads import sfs
        from repro.params import default_params
        monkeypatch.setattr(sfs, "N_FILES", 64)
        params = default_params()

        def run(n):
            cluster = Cluster(params.copy(), system="nfs",
                              block_size=4 * KB, server_cache_blocks=300,
                              n_clients=n)
            workload = sfs.SFSWorkload(cluster, ops_per_client=300)
            workload.setup()
            return workload.run()["ops_per_s"]

        assert run(2) > 1.3 * run(1)
