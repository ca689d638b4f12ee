"""End-to-end integrity tests: silent corruption vs checksums on real
clusters.

Each test drives a full cluster (client, transports, server, cache,
disk) under a seeded silent-corruption injector and asserts the contract
the integrity layer exists to provide: with checksums off the corruption
reaches the application; with checksums on every consumed corrupt block
is detected — at the server for RPC reads, at the client for ORDMA reads
— and repaired where a good copy exists.
"""

import pytest

from repro.bench.scrub import run_point, run_repair_point
from repro.cluster import Cluster
from repro.faults import Injector
from repro.integrity import IntegrityError, is_corrupt
from repro.params import KB, default_params

BLOCK = 4 * KB
BLOCKS = 24


def integrity_params(enabled, seed=11, **overrides):
    p = default_params().copy(seed=seed)
    p.integrity.enabled = enabled
    for key, value in overrides.items():
        setattr(p.integrity, key, value)
    return p


def make_cluster(system, params, blocks=BLOCKS, cache_blocks=None):
    """A cluster whose server cache holds half the file, so a scan
    misses — every read pays the disk fill where bit rot strikes."""
    client_kwargs = ({"cache_blocks": 8, "rpc_read_mode": "direct"}
                     if system in ("dafs", "odafs") else {})
    c = Cluster(params, system=system, block_size=BLOCK,
                server_cache_blocks=cache_blocks if cache_blocks
                else max(8, blocks // 2),
                client_kwargs=client_kwargs)
    c.create_file("f", blocks * BLOCK)
    return c


def scan(cluster, blocks=BLOCKS, passes=2):
    """Read the whole file ``passes`` times, tallying outcomes."""
    client = cluster.clients[0]
    state = {"ok": 0, "failed": 0, "corrupt": 0, "errors": []}

    def workload():
        yield from client.open("f")
        for _ in range(passes):
            for i in range(blocks):
                try:
                    data = yield from client.read("f", i * BLOCK, BLOCK)
                except IntegrityError as exc:
                    state["failed"] += 1
                    state["errors"].append(str(exc))
                else:
                    state["ok"] += 1
                    if is_corrupt(data):
                        state["corrupt"] += 1

    cluster.sim.run_process(workload())
    return state


class TestDiskBitrot:
    def test_corruption_escapes_without_checksums(self):
        c = make_cluster("nfs", integrity_params(False))
        inj = Injector(c)
        inj.disk_bitrot(0.3)
        inj.arm()
        state = scan(c)
        assert inj.stats.get("disk.bitrot") > 0
        # No checksums: rotten fills flow to the reader unnoticed.
        assert state["corrupt"] > 0
        assert state["failed"] == 0
        assert c.server.integrity.get("detected") == 0

    def test_checksums_detect_and_repair_every_consumed_block(self):
        c = make_cluster("nfs", integrity_params(True))
        inj = Injector(c)
        inj.disk_bitrot(0.3)
        inj.arm()
        state = scan(c)
        assert inj.stats.get("disk.bitrot") > 0
        # Nothing corrupt reaches the application, ever.
        assert state["corrupt"] == 0
        assert c.server.integrity.get("detected") > 0
        assert c.server.integrity.get("repaired") > 0
        # Repairs have a measured latency distribution.
        assert c.server.repair_latency.count == \
            c.server.integrity.get("repaired")

    def test_exhausted_repair_surfaces_typed_eintegrity(self):
        # Every fill rots (forced trap), one re-read allowed: the ladder
        # exhausts, the block quarantines, and the client sees a typed
        # IntegrityError — not silent corruption, not a generic RPCError.
        c = make_cluster("nfs", integrity_params(True, verify_retries=1))
        inj = Injector(c)
        inj.arm()
        inj.disk_faults(0).bitrot_next = 1 << 30
        state = scan(c, passes=1)
        assert state["corrupt"] == 0
        assert state["failed"] > 0
        assert all(msg.startswith("EINTEGRITY") for msg in state["errors"])
        assert c.server.integrity.get("quarantined") == state["failed"]
        assert c.server.stats.get("reads_failed_integrity") > 0


class TestOrdmaCorruption:
    def test_client_detects_every_corrupt_optimistic_get(self):
        # Whole file resident on the server: RemoteRefs stay valid, so
        # pass 2 serves via optimistic gets — the corrupted path.
        c = make_cluster("odafs", integrity_params(True),
                         cache_blocks=BLOCKS + 8)
        inj = Injector(c)
        inj.ordma_silent_corruption(0.25)
        inj.arm()
        state = scan(c)
        client = c.clients[0]
        injected = inj.stats.get("nic.ordma_corrupt")
        assert injected > 0
        # The server never sees an ORDMA payload — only the client can
        # verify, and it must catch every single corruption.
        assert client.stats.get("integrity_detected") == injected
        assert state["corrupt"] == 0
        assert state["failed"] == 0

    def test_corrupt_gets_escape_without_checksums(self):
        # RemoteRefs carry no checksum when integrity is off, so the
        # client consumes the corrupted payload as clean data.
        c = make_cluster("odafs", integrity_params(False),
                         cache_blocks=BLOCKS + 8)
        inj = Injector(c)
        inj.ordma_silent_corruption(0.25)
        inj.arm()
        state = scan(c)
        assert inj.stats.get("nic.ordma_corrupt") > 0
        assert state["corrupt"] > 0
        assert c.clients[0].stats.get("integrity_detected") == 0


class TestChecksumCost:
    def test_verification_charges_simulated_time(self):
        # Same seed, zero corruption: the checksums-on run is strictly
        # slower — verification is modeled work, not free.
        p = default_params().copy(seed=11)
        off = run_point("nfs", False, 0.0, params=p, blocks=16, passes=2)
        on = run_point("nfs", True, 0.0, params=p, blocks=16, passes=2)
        assert off["corrupt_reads"] == on["corrupt_reads"] == 0
        assert on["sim_us"] > off["sim_us"]
        assert on["throughput_mb_s"] < off["throughput_mb_s"]


class TestScrubber:
    def test_scrubber_repairs_misdirected_blocks_in_idle_time(self):
        misdirects = 4
        p = integrity_params(True, scrub_interval_us=500.0,
                             scrub_blocks_per_pass=16)
        c = make_cluster("nfs", p, cache_blocks=BLOCKS + 8)
        inj = Injector(c)
        inj.arm()
        inj.disk_faults(0).misdirect_next = misdirects
        client = c.clients[0]

        def workload():
            yield from client.open("f")
            for i in range(misdirects):
                yield from client.write("f", i * BLOCK, BLOCK)
            yield c.sim.timeout(30_000.0)
            yield from client.close("f")

        proc = c.sim.process(workload(), name="wl")
        c.server.scrubber.start(stop_on=proc)
        c.sim.run()
        assert proc.triggered  # the daemon exits; the run terminates
        s = c.server.integrity
        assert inj.stats.get("disk.misdirect") == misdirects
        assert s.get("scrub.detected") == misdirects
        assert s.get("scrub.repaired") == misdirects
        assert s.get("scrub.quarantined") == 0
        assert s.get("scrub.passes") >= 1

    def test_scrubber_is_not_started_without_interval(self):
        c = make_cluster("nfs", integrity_params(True))
        assert c.server.scrubber is None
        c2 = make_cluster("nfs", integrity_params(False))
        assert c2.server.scrubber is None and c2.server.checksums is None


class TestShardedReadRepair:
    def test_replica_repairs_rotten_shard_without_down_marking(self):
        point = run_repair_point(params=default_params().copy(seed=11))
        assert point["completed"]
        # Pass 1: every read of a server-0 block detects, quarantines,
        # reroutes to the replica and writes the good copy back...
        assert point["integrity_errors"] > 0
        assert point["read_repairs"] == point["integrity_errors"]
        assert point["server0_quarantined"] > 0
        # ...without ever treating the alive-but-rotten shard as down.
        assert point["down_marks"] == 0
        # And nothing corrupt ever reached the application.
        assert point["corrupt_reads"] == 0
        assert point["ops_failed"] == 0

    def test_programming_error_propagates(self, monkeypatch):
        """A bug in the workload is a failure, not ``completed: false``."""
        from repro.nas.shard import ShardRouter

        def read(self, name, offset, nbytes, app_buffer=None):
            raise KeyError("bug")
            yield  # a generator, like the real read

        monkeypatch.setattr(ShardRouter, "read", read)
        with pytest.raises(KeyError):
            run_repair_point(params=default_params().copy(seed=11),
                             blocks=4)

    def test_without_replicas_the_error_is_typed(self):
        # No replica chain to fall back on: the router surfaces the
        # shard's EINTEGRITY instead of masking it as a shard-down.
        p = integrity_params(True, verify_retries=1)
        p.shard.n_servers = 2
        p.shard.placement = "stripe"
        p.shard.stripe_blocks = 1
        p.shard.replicas = 0
        c = Cluster(p, system="nfs", n_clients=1, block_size=BLOCK,
                    server_cache_blocks=16)
        c.create_file("rot", 8 * BLOCK, warm=False)
        inj = Injector(c)
        inj.arm()
        inj.disk_faults(0).bitrot_next = 1 << 30
        router = c.clients[0]
        state = {"typed": 0, "ok": 0}

        def workload():
            yield from router.open("rot")
            for i in range(8):
                try:
                    yield from router.read("rot", i * BLOCK, BLOCK)
                except IntegrityError as exc:
                    assert str(exc).startswith("EINTEGRITY shard")
                    state["typed"] += 1
                else:
                    state["ok"] += 1

        c.sim.run_process(workload())
        # Half the stripe lives on the rotten server; those reads fail
        # typed, the rest serve clean, and nobody gets down-marked.
        assert state["typed"] > 0 and state["ok"] > 0
        assert router.stats.get("down_marks") == 0
