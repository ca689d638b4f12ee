"""Unit tests for the shard layer: placement, router, cluster wiring,
and crash failover.

The property suite (``tests/property/test_shard_properties.py``) covers
read byte-identity against the single-server baseline; here we pin the
mechanics — placement math, segment splitting, failover bookkeeping,
and the typed error surface.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cluster import Cluster
from repro.faults import FaultSchedule, Injector
from repro.nas.shard import (HashPlacement, ShardDownError, ShardRouter,
                             StripePlacement, make_placement)
from repro.params import ShardParams, default_params


def shard_params(**kwargs):
    p = default_params()
    for key, value in kwargs.items():
        setattr(p.shard, key, value)
    return p


def make_cluster(system="odafs", n_servers=2, n_clients=1, replicas=0,
                 placement="stripe", cache_blocks=64, **cluster_kwargs):
    p = shard_params(n_servers=n_servers, replicas=replicas,
                     placement=placement)
    kwargs = ({"cache_blocks": cache_blocks}
              if system in ("dafs", "odafs") else {})
    return Cluster(p, system=system, n_clients=n_clients,
                   client_kwargs=kwargs, **cluster_kwargs)


class TestPlacement:
    def test_stripe_walks_servers_round_robin(self):
        pl = StripePlacement(n_servers=4, stripe_blocks=1, replicas=0,
                             seed=7)
        base = pl.shard_of("f", 0)
        for i in range(16):
            assert pl.shard_of("f", i) == (base + i) % 4

    def test_stripe_unit_keeps_runs_contiguous(self):
        pl = StripePlacement(n_servers=2, stripe_blocks=4, replicas=0,
                             seed=7)
        shards = [pl.shard_of("f", i) for i in range(8)]
        assert shards[0:4] == [shards[0]] * 4
        assert shards[4:8] == [1 - shards[0]] * 4

    def test_placement_is_a_pure_function_of_seed(self):
        for cls in (StripePlacement, HashPlacement):
            a = cls(n_servers=4, stripe_blocks=2, replicas=1, seed=11)
            b = cls(n_servers=4, stripe_blocks=2, replicas=1, seed=11)
            c = cls(n_servers=4, stripe_blocks=2, replicas=1, seed=12)
            keys = [(f"file{i}", b) for i in range(8) for b in range(8)]
            assert [a.shard_of(*k) for k in keys] == \
                [b.shard_of(*k) for k in keys]
            assert [a.shard_of(*k) for k in keys] != \
                [c.shard_of(*k) for k in keys]

    def test_replica_chain_is_distinct_and_starts_at_primary(self):
        for placement in ("stripe", "hash"):
            pl = make_placement(
                ShardParams(n_servers=4, placement=placement, replicas=2),
                seed=3)
            for block in range(8):
                chain = pl.replica_chain("f", block)
                assert chain[0] == pl.shard_of("f", block)
                assert len(chain) == 3
                assert len(set(chain)) == 3

    def test_hash_placement_moves_few_units_when_growing(self):
        small = HashPlacement(n_servers=3, stripe_blocks=1, replicas=0,
                              seed=5)
        big = HashPlacement(n_servers=4, stripe_blocks=1, replicas=0,
                            seed=5)
        keys = [(f"file{i}", b) for i in range(32) for b in range(16)]
        moved = sum(1 for k in keys
                    if small.shard_of(*k) != big.shard_of(*k))
        # Consistent hashing relocates ~1/4 of the keys, not ~3/4 as
        # modulo placement would.
        assert moved / len(keys) < 0.45

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            StripePlacement(n_servers=0, stripe_blocks=1, replicas=0,
                            seed=1)
        with pytest.raises(ValueError):
            StripePlacement(n_servers=2, stripe_blocks=0, replicas=0,
                            seed=1)
        with pytest.raises(ValueError):
            StripePlacement(n_servers=2, stripe_blocks=1, replicas=2,
                            seed=1)
        with pytest.raises(ValueError):
            make_placement(ShardParams(placement="rendezvous"), seed=1)


class TestRouterSegments:
    def test_single_server_reads_are_one_segment(self):
        c = make_cluster(n_servers=1)
        client = c.clients[0]
        router = ShardRouter(client.host, [client], c.placement,
                             c.block_size)
        segs = router._segments("f", 0, 8 * c.block_size)
        assert len(segs) == 1
        assert segs[0][1:] == (0, 8 * c.block_size, 8)

    def test_alternating_blocks_split_per_block(self):
        c = make_cluster(n_servers=2)
        router = c.clients[0]
        bs = c.block_size
        segs = router._segments("f", 0, 4 * bs)
        # stripe_blocks=1: consecutive blocks alternate shards.
        assert len(segs) == 4
        assert [s[3] for s in segs] == [1, 1, 1, 1]
        shards = [s[0] for s in segs]
        assert shards == [shards[0], 1 - shards[0]] * 2

    def test_unaligned_range_is_clipped_to_request(self):
        c = make_cluster(n_servers=2)
        router = c.clients[0]
        bs = c.block_size
        segs = router._segments("f", bs // 2, bs)
        # Straddles two blocks on two shards; byte extents must cover
        # exactly the request.
        assert len(segs) == 2
        assert segs[0][1] == bs // 2 and segs[0][2] == bs // 2
        assert segs[1][1] == bs and segs[1][2] == bs // 2
        assert sum(s[2] for s in segs) == bs


class TestClusterWiring:
    def test_one_full_server_stack_per_shard(self):
        c = make_cluster(n_servers=4, n_clients=2)
        assert len(c.servers) == len(c.disks) == len(c.caches) == 4
        assert [h.name for h in c.server_hosts] == \
            [f"server{k}" for k in range(4)]
        for router in c.clients:
            assert len(router.subclients) == 4

    def test_subclients_bind_per_shard_ports(self):
        c = make_cluster(n_servers=3)
        ports = [server.rpc.transport.port for server in c.servers]
        assert ports == sorted(ports) and len(set(ports)) == 3

    def test_warm_create_preloads_only_owned_blocks(self):
        c = make_cluster(n_servers=2)
        c.create_file("f", 8 * c.block_size)
        for k, cache in enumerate(c.caches):
            owned = {i for i in range(8)
                     if k in c.placement.replica_chain("f", i)}
            cached = {idx for (name, idx) in cache._blocks
                      if name == "f"}
            assert cached == owned

    def test_replicas_are_warmed_too(self):
        c = make_cluster(n_servers=2, replicas=1)
        c.create_file("f", 4 * c.block_size)
        for cache in c.caches:
            cached = {idx for (name, idx) in cache._blocks
                      if name == "f"}
            assert cached == set(range(4))

    def test_rejects_unknown_system(self):
        with pytest.raises(ValueError):
            make_cluster(system="nfs-hybrid")

    @pytest.mark.parametrize("n_servers, present, absent", [
        # One server keeps the paper testbed's names: no router.
        (1, ("server.cpu", "server.disk", "client0.ops", "client0.rpc"),
         ("client0.shard", "server0.cpu", "client0.s0.ops")),
        (2, ("server0.rpc", "server1.rpc", "server0.disk",
             "client0.shard", "client0.s0.rpc", "client0.s1.rpc"),
         ("server.cpu", "client0.ops")),
    ], ids=["one-server", "two-servers"])
    def test_metrics_namespace_per_shard_and_router(self, n_servers,
                                                    present, absent):
        c = make_cluster(n_servers=n_servers)
        assert all(name in c.metrics for name in present)
        assert not any(name in c.metrics for name in absent)

    def test_single_server_accessors_raise_on_many_servers(self):
        one = make_cluster(n_servers=1)
        assert one.server is one.servers[0]
        assert one.cache is one.caches[0]
        many = make_cluster(n_servers=2)
        for name in ("server", "server_host", "fs", "disk", "cache",
                     "scheduler"):
            with pytest.raises(RuntimeError, match="2 servers"):
                getattr(many, name)

    @pytest.mark.parametrize("cluster_first", [True, False])
    def test_sharded_cluster_alias_resolves_in_either_import_order(
            self, cluster_first):
        imports = ["import repro.cluster",
                   "from repro.nas.shard import ShardedCluster"]
        if not cluster_first:
            imports.reverse()
        code = "\n".join(imports + [
            "from repro.cluster import Cluster",
            "from repro.nas.shard import ShardedCluster",
            "assert ShardedCluster is Cluster"])
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestReadsAndWrites:
    def test_striped_read_counts_segments_and_fanout(self):
        c = make_cluster(n_servers=2)
        c.create_file("f", 8 * c.block_size)
        router = c.clients[0]

        def wl():
            yield from router.open("f")
            yield from router.read("f", 0, 4 * c.block_size)
        c.sim.run_process(wl())
        assert router.stats.get("reads") == 1
        assert router.stats.get("routed_segments") == 4
        assert router.stats.get("fanout_reads") == 1

    def test_write_updates_every_replica(self):
        c = make_cluster(system="nfs", n_servers=2, replicas=1)
        c.create_file("f", 2 * c.block_size)
        router = c.clients[0]

        def wl():
            yield from router.open("f", mode="write")
            yield from router.write("f", 0, c.block_size)
        c.sim.run_process(wl())
        for fs in c.filesystems:
            assert fs.lookup("f").version_of(0) == 1

    def test_create_broadcasts_to_every_namespace(self):
        c = make_cluster(system="nfs", n_servers=3)
        router = c.clients[0]

        def wl():
            yield from router.create("new", 2 * c.block_size)
        c.sim.run_process(wl())
        for fs in c.filesystems:
            assert fs.exists("new")


class TestFailover:
    def crashed_cluster(self, replicas, system="odafs", reads=40):
        c = make_cluster(system=system, n_servers=2, replicas=replicas)
        blocks = 8
        c.create_file("f", blocks * c.block_size)
        inj = Injector(c)
        inj.enable_resilience(timeout_us=2000.0, max_retries=2)
        inj.schedule_server_crash(FaultSchedule.at([2000.0]),
                                  downtime_us=1e6)
        inj.arm()
        router = c.clients[0]
        outcome = {"ok": 0, "down": 0}

        def wl():
            yield from router.open("f")
            for i in range(reads):
                try:
                    yield from router.read("f", (i % blocks) *
                                           c.block_size, c.block_size)
                except ShardDownError as e:
                    assert e.shard == 0
                    assert e.op == "read"
                    outcome["down"] += 1
                else:
                    outcome["ok"] += 1
                yield c.sim.timeout(200.0)
        c.sim.run_process(wl())
        return c, router, outcome

    def test_replica_serves_reads_after_crash(self):
        c, router, outcome = self.crashed_cluster(replicas=1)
        assert outcome["down"] == 0
        assert outcome["ok"] == 40
        assert router.stats.get("failovers") >= 1
        assert router.stats.get("replica_reads") >= 1
        assert router.stats.get("down_marks") >= 1

    def test_without_replicas_raises_typed_error(self):
        c, router, outcome = self.crashed_cluster(replicas=0)
        # The run completes — no hang — with the dead shard's reads
        # surfacing as ShardDownError and the live shard still serving.
        assert outcome["down"] > 0
        assert outcome["ok"] > 0
        assert router.down_shards() >= 0  # gauge callable, no crash

    def test_crash_loses_only_that_shards_cache(self):
        c, router, _ = self.crashed_cluster(replicas=1)
        assert len(c.caches[0]) == 0
        assert len(c.caches[1]) > 0

    def test_cooldown_recovers_after_restart(self):
        c = make_cluster(system="odafs", n_servers=2, replicas=1)
        c.create_file("f", 4 * c.block_size)
        p = c.params.shard
        inj = Injector(c)
        inj.enable_resilience(timeout_us=2000.0, max_retries=1)
        # Short downtime: the server restarts well before the workload
        # ends, and after the router's cooldown the primary serves again.
        inj.schedule_server_crash(FaultSchedule.at([1500.0]),
                                  downtime_us=4000.0)
        inj.arm()
        router = c.clients[0]

        def wl():
            yield from router.open("f")
            for i in range(60):
                yield from router.read("f", (i % 4) * c.block_size,
                                       c.block_size)
                yield c.sim.timeout(p.down_cooldown_us / 10)
        c.sim.run_process(wl())
        assert router.stats.get("failovers") >= 1
        assert not router.is_down(0)


class TestBroadcastUnderCrash:
    """Namespace broadcasts (`_broadcast`/`_swallow_timeout`) and the
    home-shard paths (open/close/lock) when a shard dies mid-run."""

    def test_create_broadcast_survives_a_crashed_shard(self):
        c = make_cluster(system="nfs", n_servers=3)
        inj = Injector(c)
        inj.enable_resilience(timeout_us=2000.0, max_retries=2)
        inj.schedule_server_crash(FaultSchedule.at([1000.0]),
                                  downtime_us=1e6)
        inj.arm()
        router = c.clients[0]

        def wl():
            yield c.sim.timeout(3000.0)   # crash lands first
            yield from router.create("new", 2 * c.block_size)
        c.sim.run_process(wl())
        # The dead shard's timeout is swallowed (and down-marks it); the
        # live shards all got the create. (The run itself ends at the
        # server's restart, long past the down-cooldown, so we assert
        # the mark, not is_down.)
        assert router.stats.get("creates") == 1
        assert router.stats.get("timeouts") >= 1
        assert router.stats.get("down_marks") >= 1
        assert not c.filesystems[0].exists("new")
        assert c.filesystems[1].exists("new")
        assert c.filesystems[2].exists("new")

    def test_broadcast_skips_a_shard_already_marked_down(self):
        c = make_cluster(system="nfs", n_servers=3)
        router = c.clients[0]
        router._down_until[0] = 1e12   # inside its cooldown window

        def wl():
            yield from router.create("new", 2 * c.block_size)
        c.sim.run_process(wl())
        # No RPC was even attempted against the down shard: no timeout
        # burned, and its namespace never saw the create.
        assert router.stats.get("timeouts") == 0
        assert not c.filesystems[0].exists("new")
        assert c.filesystems[1].exists("new")
        assert c.filesystems[2].exists("new")

    def test_broadcast_with_every_shard_down_raises_typed(self):
        c = make_cluster(system="nfs", n_servers=2)
        router = c.clients[0]
        for shard in range(2):
            router._down_until[shard] = 1e12
        with pytest.raises(ShardDownError):
            c.sim.run_process(router.create("new", c.block_size))

    def test_close_swallows_timeout_after_home_crash(self):
        # Two conflicting write-opens: the second client is denied a
        # delegation, so its close must go over RPC — into the crash.
        c = make_cluster(system="nfs", n_servers=2, n_clients=2)
        c.create_file("f", 2 * c.block_size)
        home = c.placement.shard_of("f", 0)
        inj = Injector(c)
        inj.enable_resilience(timeout_us=2000.0, max_retries=2)
        # schedule_server_crash crashes server 0; crash the home shard.
        faults, rpc = inj.server_faults(home), c.servers[home].rpc
        inj.schedule(FaultSchedule.at([1000.0]),
                     lambda: faults.crash_now(rpc, 1e6))
        inj.arm()
        holder, closer = c.clients

        def wl():
            yield from holder.open("f", mode="write")
            yield from closer.open("f", mode="write")  # no delegation
            yield c.sim.timeout(3000.0)   # the home shard crashes
            yield from closer.close("f")
        c.sim.run_process(wl())
        # The close completed: the crashed server's open state died with
        # it, so the timeout is swallowed rather than surfaced.
        assert closer.stats.get("closes") == 1
        assert closer.stats.get("timeouts") >= 1
        assert closer.stats.get("down_marks") >= 1
