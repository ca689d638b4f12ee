"""Tests for eager reference fetching (ODAFS ``prefetch_refs``)."""

from repro.cluster import Cluster
from repro.params import KB


class TestEagerRefs:
    def test_prefetch_refs_fills_directory(self):
        cluster = Cluster(system="odafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 2})
        cluster.create_file("f", 32 * KB)
        client = cluster.clients[0]

        def proc():
            count = yield from client.prefetch_refs("f")
            return count, len(client.directory)

        count, dir_len = cluster.sim.run_process(proc())
        assert count == 8
        assert dir_len == 8

    def test_eager_refs_enable_first_read_ordma(self):
        """With an eagerly built directory, even the *first* miss on a
        block is served by ORDMA — no RPC fill ever happens."""
        cluster = Cluster(system="odafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 2})
        cluster.create_file("f", 32 * KB)
        client = cluster.clients[0]

        def proc():
            yield from client.prefetch_refs("f")
            for i in range(8):
                yield from client.read("f", i * 4 * KB, 4 * KB)
            return (client.stats.get("ordma_reads"),
                    client.stats.get("rpc_fills"))

        ordma, rpc = cluster.sim.run_process(proc())
        assert ordma == 8
        assert rpc == 0

    def test_prefetch_on_uncached_file_returns_zero(self):
        cluster = Cluster(system="odafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 2})
        cluster.create_file("cold", 16 * KB, warm=False)
        client = cluster.clients[0]

        def proc():
            count = yield from client.prefetch_refs("cold")
            return count

        assert cluster.sim.run_process(proc()) == 0
