"""End-to-end reads and writes across all five NAS systems."""

import pytest

from repro.cluster import SYSTEMS, Cluster
from repro.params import KB, default_params


def make_cluster(system, **kw):
    kw.setdefault("block_size", 4 * KB)
    if system in ("dafs", "odafs"):
        kw.setdefault("client_kwargs", {"cache_blocks": 8})
    return Cluster(system=system, **kw)


@pytest.mark.parametrize("system", SYSTEMS)
def test_read_returns_correct_block_content(system):
    cluster = make_cluster(system)
    cluster.create_file("f", 64 * KB)

    def reader(client):
        yield from client.open("f")
        data = yield from client.read("f", 8 * KB, 4 * KB)
        yield from client.close("f")
        return data

    data = cluster.sim.run_process(reader(cluster.clients[0]))
    assert data == ("f", 2, 0)  # block 2, version 0


@pytest.mark.parametrize("system", SYSTEMS)
def test_multi_block_read(system):
    cluster = make_cluster(system)
    cluster.create_file("f", 64 * KB)

    def reader(client):
        data = yield from client.read("f", 0, 16 * KB)
        return data

    data = cluster.sim.run_process(reader(cluster.clients[0]))
    assert data == tuple(("f", i, 0) for i in range(4))


@pytest.mark.parametrize("system", SYSTEMS)
def test_write_bumps_version_and_read_sees_it(system):
    cluster = make_cluster(system)
    cluster.create_file("f", 16 * KB)

    def writer_reader(client):
        yield from client.write("f", 4 * KB, 4 * KB)
        data = yield from client.read("f", 4 * KB, 4 * KB)
        return data

    data = cluster.sim.run_process(writer_reader(cluster.clients[0]))
    assert data == ("f", 1, 1)  # version bumped by the write


@pytest.mark.parametrize("system", SYSTEMS)
def test_read_of_missing_file_raises(system):
    from repro.proto.rpc import RPCError
    cluster = make_cluster(system)
    cluster.create_file("exists", 4 * KB)

    def reader(client):
        try:
            yield from client.open("missing")
        except RPCError as exc:
            return str(exc)

    result = cluster.sim.run_process(reader(cluster.clients[0]))
    assert "ENOENT" in result


@pytest.mark.parametrize("system", ["nfs-prepost", "nfs-remap", "nfs-hybrid"])
def test_direct_read_into_a_short_user_buffer_raises(system):
    cluster = make_cluster(system)
    cluster.create_file("f", 16 * KB)
    client = cluster.clients[0]
    short = cluster.client_hosts[0].mem.alloc(4 * KB)

    def reader():
        yield from client.read("f", 0, 8 * KB, app_buffer=short)

    with pytest.raises(ValueError, match="user buffer too small: 4096 < 8192"):
        cluster.sim.run_process(reader())
    assert client.stats.get("reads") == 0


def test_read_with_an_unknown_mode_is_refused_before_any_block_is_read():
    from repro.proto.rpc import RPCError
    cluster = make_cluster("nfs")
    cluster.create_file("f", 16 * KB)
    cache_stats = cluster.cache.stats.as_dict()

    def reader(client):
        try:
            yield from client._call("read", {"name": "f", "offset": 0,
                                             "nbytes": 8 * KB,
                                             "mode": "bogus"})
        except RPCError as exc:
            return str(exc)

    assert "bad mode bogus" in cluster.sim.run_process(
        reader(cluster.clients[0]))
    assert cluster.server.stats.get("reads") == 0
    assert cluster.server.stats.get("read_bytes") == 0
    assert cluster.cache.stats.as_dict() == cache_stats


def _zero_byte_cluster(case):
    if case == "router":
        params = default_params()
        params.shard.n_servers = 2
        return Cluster(params, system="odafs", block_size=4 * KB,
                       client_kwargs={"cache_blocks": 8})
    if case == "dafs-uncached":
        return make_cluster("dafs", client_kwargs={})
    return make_cluster(case)


@pytest.mark.parametrize("case", [*SYSTEMS, "dafs-uncached", "router"])
def test_zero_byte_read_returns_no_block_and_fetches_nothing(case):
    cluster = _zero_byte_cluster(case)
    cluster.create_file("f", 16 * KB)
    mem = cluster.client_hosts[0].mem
    buffers = len(mem._buffers)
    cache_stats = [cache.stats.as_dict() for cache in cluster.caches]
    cluster.sim.run()  # let start-up work (posted receives) settle first
    start = cluster.sim.now
    before = cluster.metrics.snapshot()

    def reader(client):
        data = yield from client.read("f", 4 * KB, 0)
        return data

    assert cluster.sim.run_process(reader(cluster.clients[0])) == ()
    assert [cache.stats.as_dict() for cache in cluster.caches] == \
        cache_stats
    assert all(server.stats.get("read_bytes") == 0
               for server in cluster.servers)
    assert len(mem._buffers) == buffers
    # One rule in every system: no RPC and no count, so no metric moves.
    after = cluster.metrics.snapshot()
    assert {name: (before.get(name), value)
            for name, value in after.items()
            if before.get(name) != value} == {}
    assert cluster.sim.now == start


def test_zero_byte_write_through_the_router_writes_nothing():
    cluster = _zero_byte_cluster("router")
    cluster.create_file("f", 16 * KB)

    def writer(client):
        meta = yield from client.write("f", 4 * KB, 0)
        return meta

    assert cluster.sim.run_process(writer(cluster.clients[0])) is None
    assert all(server.stats.get("writes") == 0
               for server in cluster.servers)


def test_open_delegation_makes_reopens_local():
    cluster = make_cluster("dafs")
    cluster.create_file("f", 4 * KB)
    client = cluster.clients[0]

    def proc():
        yield from client.open("f")
        yield from client.open("f")
        yield from client.open("f")
        yield from client.close("f")
        return (client.stats.get("remote_opens"),
                client.stats.get("local_opens"),
                client.stats.get("local_closes"))

    remote, local, closes = cluster.sim.run_process(proc())
    assert remote == 1
    assert local == 2
    assert closes == 1


def test_write_open_conflict_recalls_read_delegation():
    cluster = make_cluster("dafs", n_clients=2)
    cluster.create_file("f", 4 * KB)
    reader, writer = cluster.clients

    def proc():
        handle = yield from reader.open("f")
        assert handle.delegated
        yield from writer.open("f", mode="write")
        # The reader learns about the recall on its next RPC.
        yield from reader.getattr("f")
        return handle.delegated

    assert cluster.sim.run_process(proc()) is False


def test_odafs_second_read_uses_ordma():
    cluster = make_cluster("odafs",
                           client_kwargs={"cache_blocks": 2})
    cluster.create_file("f", 64 * KB)
    client = cluster.clients[0]

    def proc():
        # Pass 1: RPC fills; references piggybacked into the directory.
        for i in range(16):
            yield from client.read("f", i * 4 * KB, 4 * KB)
        rpc_fills = client.stats.get("rpc_fills")
        # Pass 2: cache (2 blocks) misses again, but ORDMA now succeeds.
        for i in range(16):
            yield from client.read("f", i * 4 * KB, 4 * KB)
        return rpc_fills, client.stats.get("ordma_reads")

    rpc_fills, ordma_reads = cluster.sim.run_process(proc())
    assert rpc_fills == 16
    assert ordma_reads >= 14  # all pass-2 misses served by ORDMA


def test_odafs_ordma_bypasses_server_cpu():
    cluster = make_cluster("odafs", client_kwargs={"cache_blocks": 2})
    cluster.create_file("f", 32 * KB)
    client = cluster.clients[0]

    def proc():
        for i in range(8):
            yield from client.read("f", i * 4 * KB, 4 * KB)
        cluster.server_host.cpu.reset_measurement()
        for i in range(8):
            yield from client.read("f", i * 4 * KB, 4 * KB)
        return (cluster.server_host.cpu.busy.busy_us
                - cluster.server_host.cpu.busy._window_busy_mark)

    extra_server_cpu = cluster.sim.run_process(proc())
    assert extra_server_cpu == 0.0


def test_odafs_fault_falls_back_to_rpc_and_recovers():
    cluster = make_cluster("odafs", client_kwargs={"cache_blocks": 2})
    cluster.create_file("f", 16 * KB)
    client = cluster.clients[0]

    def proc():
        for i in range(4):
            yield from client.read("f", i * 4 * KB, 4 * KB)
        # Server evicts a block: its export is revoked; the client's
        # directory entry is now stale.
        cluster.cache.invalidate(("f", 0))
        data = yield from client.read("f", 0, 4 * KB)
        return data, client.stats.get("ordma_faults")

    data, faults = cluster.sim.run_process(proc())
    assert data == ("f", 0, 0)
    assert faults == 1


def test_odafs_write_invalidates_stale_client_state():
    cluster = make_cluster("odafs", n_clients=2,
                           client_kwargs={"cache_blocks": 2})
    cluster.create_file("f", 16 * KB)
    c0, c1 = cluster.clients

    def proc():
        for i in range(4):
            yield from c0.read("f", i * 4 * KB, 4 * KB)
        yield from c1.write("f", 0, 4 * KB)
        # c0's cache (2 blocks) has evicted block 0; the directory ref is
        # still valid (data updated in place), so ORDMA sees new data.
        data = yield from c0.read("f", 0, 4 * KB)
        return data

    assert cluster.sim.run_process(proc()) == ("f", 0, 1)


def test_dafs_batch_read():
    cluster = make_cluster("dafs", client_kwargs={"cache_blocks": 0})
    cluster.create_file("f", 64 * KB)
    client = cluster.clients[0]

    def proc():
        bufs = [client.host.mem.alloc(4 * KB) for _ in range(4)]
        extents = [(i * 4 * KB, 4 * KB, bufs[i]) for i in range(4)]
        datas = yield from client.read_batch("f", extents)
        return datas

    datas = cluster.sim.run_process(proc())
    assert datas == [("f", i, 0) for i in range(4)]


def test_cold_cache_read_goes_to_disk():
    cluster = make_cluster("dafs", client_kwargs={"cache_blocks": 0})
    cluster.create_file("cold", 16 * KB, warm=False)
    client = cluster.clients[0]

    def proc():
        start = cluster.sim.now
        yield from client.read("cold", 0, 4 * KB)
        first = cluster.sim.now - start
        start = cluster.sim.now
        yield from client.read("cold", 0, 4 * KB)
        second = cluster.sim.now - start
        return first, second

    first, second = cluster.sim.run_process(proc())
    disk_latency = cluster.params.storage.disk_latency_us
    assert first > disk_latency  # cold: disk access
    assert second < disk_latency / 2  # warm: served from the file cache
    assert cluster.disk.stats.get("reads") == 1
