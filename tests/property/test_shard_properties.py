"""Property-based tests for the shard layer's core guarantee.

Striping is purely a routing and cache-warming concern: every server's
file system holds the full file, and block content is the logical
``(name, block_index, version)`` tuple. So a striped read through the
:class:`~repro.nas.shard.router.ShardRouter` must return byte-identical
content to a single-server :class:`~repro.cluster.Cluster` read of the
same range — for every system the shard layer supports, any server
count, either placement policy, and unaligned ranges included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SHARD_SYSTEMS, Cluster
from repro.nas.shard import ShardRouter
from repro.params import default_params

FILE_BLOCKS = 16


def _client_kwargs(system):
    # Client block caches must hold the widest read: eviction inside one
    # multi-block request is a (pre-existing) single-server behavior, not
    # a routing property, so keep it out of the comparison.
    return {} if system == "nfs" else {"cache_blocks": 64}


def _shard_cluster(system, n_servers, placement, stripe_blocks, replicas):
    p = default_params()
    p.shard.n_servers = n_servers
    p.shard.placement = placement
    p.shard.stripe_blocks = stripe_blocks
    p.shard.replicas = replicas
    return Cluster(p, system=system, client_kwargs=_client_kwargs(system))


def _blocks_of(data):
    """Normalize a read payload to a list of block-content tuples."""
    if isinstance(data, tuple) and data and isinstance(data[0], str):
        return [data]  # a single (name, index, version) block
    return list(data)


def _run_reads(cluster, client, name, ranges):
    out = []

    def wl():
        yield from client.open(name)
        for offset, nbytes in ranges:
            data = yield from client.read(name, offset, nbytes)
            out.append(_blocks_of(data))
        yield from client.close(name)
    cluster.sim.run_process(wl())
    return out


def _ranges_strategy(block_size):
    size = FILE_BLOCKS * block_size
    offsets = st.integers(min_value=0, max_value=size - 1)

    def clip(offset_and_len):
        offset, nbytes = offset_and_len
        return (offset, max(1, min(nbytes, size - offset)))
    return st.lists(
        st.tuples(offsets,
                  st.integers(min_value=1, max_value=8 * block_size))
        .map(clip),
        min_size=1, max_size=6)


class TestStripedReadIdentity:
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(SHARD_SYSTEMS),
           st.sampled_from([2, 4]),
           st.sampled_from(["stripe", "hash"]),
           st.sampled_from([1, 4]),
           st.data())
    def test_striped_reads_match_single_server_baseline(
            self, system, n_servers, placement, stripe_blocks, data):
        sharded = _shard_cluster(system, n_servers, placement,
                                 stripe_blocks, replicas=0)
        baseline = Cluster(default_params(), system=system,
                           client_kwargs=_client_kwargs(system))
        assert sharded.block_size == baseline.block_size
        ranges = data.draw(_ranges_strategy(sharded.block_size))

        sharded.create_file("f", FILE_BLOCKS * sharded.block_size)
        baseline.create_file("f", FILE_BLOCKS * baseline.block_size)
        got = _run_reads(sharded, sharded.clients[0], "f", ranges)
        want = _run_reads(baseline, baseline.clients[0], "f", ranges)
        assert got == want

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_replicated_reads_match_baseline_too(self, n_servers, data):
        """Replication changes where copies live, never what a read
        returns."""
        sharded = _shard_cluster("odafs", n_servers, "stripe",
                                 stripe_blocks=2, replicas=1)
        baseline = Cluster(default_params(), system="odafs",
                           client_kwargs=_client_kwargs("odafs"))
        ranges = data.draw(_ranges_strategy(sharded.block_size))
        sharded.create_file("f", FILE_BLOCKS * sharded.block_size)
        baseline.create_file("f", FILE_BLOCKS * baseline.block_size)
        got = _run_reads(sharded, sharded.clients[0], "f", ranges)
        want = _run_reads(baseline, baseline.clients[0], "f", ranges)
        assert got == want

    @settings(max_examples=5, deadline=None)
    @given(st.sampled_from(["stripe", "hash"]), st.data())
    def test_one_server_shard_layer_is_transparent(self, placement, data):
        """A router over one subclient is a pass-through: the same
        payloads, simulated time, kernel events, switch frames and
        metric values as the bare client — which is why a one-server
        cluster hands out plain clients. Checked for every shard system
        on the same ranges."""
        ranges = data.draw(_ranges_strategy(
            default_params().storage.server_cache_block))
        for system in SHARD_SYSTEMS:
            bare = _shard_cluster(system, 1, placement, stripe_blocks=4,
                                  replicas=0)
            routed = _shard_cluster(system, 1, placement, stripe_blocks=4,
                                    replicas=0)
            client = routed.clients[0]
            router = ShardRouter(client.host, [client], routed.placement,
                                 routed.block_size)
            for c in (bare, routed):
                c.create_file("f", FILE_BLOCKS * c.block_size)
            want = _run_reads(bare, bare.clients[0], "f", ranges)
            got = _run_reads(routed, router, "f", ranges)
            assert got == want
            assert routed.sim.now == bare.sim.now
            assert routed.sim._seq == bare.sim._seq
            assert routed.switch.frames_forwarded == \
                bare.switch.frames_forwarded
            assert routed.metrics.snapshot() == bare.metrics.snapshot()
            assert router.stats.get("routed_segments") == len(ranges)


class TestWriteVisibility:
    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([2, 4]),
           st.integers(min_value=0, max_value=FILE_BLOCKS - 1))
    def test_write_then_read_sees_new_version(self, n_servers, block):
        """A routed write bumps the version a subsequent routed read
        returns, wherever the block landed."""
        c = _shard_cluster("nfs", n_servers, "stripe", stripe_blocks=2,
                           replicas=0)
        c.create_file("f", FILE_BLOCKS * c.block_size)
        router = c.clients[0]
        seen = []

        def wl():
            yield from router.open("f", mode="write")
            yield from router.write("f", block * c.block_size,
                                    c.block_size)
            data = yield from router.read("f", block * c.block_size,
                                          c.block_size)
            seen.append(data)
        c.sim.run_process(wl())
        assert seen == [("f", block, 1)]
