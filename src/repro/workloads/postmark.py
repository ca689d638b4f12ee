"""PostMark-style small-file workload (Fig. 6).

Section 5.2 models a latency-sensitive client by configuring PostMark
[Katcher TR-3022] for read-only transactions on a set of small files:
each transaction opens a file (local after the first open thanks to the
open delegation), synchronously reads it (4 KB average), and closes it
(also local). The file set exceeds the client cache; the client-cache hit
ratio is swept by varying the cache size against a fixed file set.

The full PostMark shape (creates/deletes, appends, read-write mixes) is
also implemented for library completeness; the Fig. 6 configuration is
``transactions_only with read_ratio=1.0``.

:func:`run_shared_postmark` is the N-client form the ``scale`` and
``shard`` campaigns sweep: every client runs read-only transactions over
one shared file set.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..cluster import Cluster
from ..params import KB
from ..sim import LatencyStats

#: File size in :func:`run_shared_postmark`: the paper's 4 KB small-I/O
#: unit, read whole by every transaction.
SHARED_FILE_SIZE = 4 * KB


def _name(i: int) -> str:
    return f"pm{i:06d}"


def run_shared_postmark(cluster: Cluster, n_files: int, transactions: int,
                        latency: LatencyStats, stream_prefix: str) -> float:
    """Every client of ``cluster`` runs read-only PostMark transactions
    over one shared warm ``n_files``-file set of ``SHARED_FILE_SIZE``
    files; returns the measured pass's elapsed simulated time.

    Each client first opens/reads/closes every file once (delegations
    granted and, for ODAFS, remote references piggybacked into the
    directory), then waits at a barrier; the measurement window opens
    there, and each client runs ``transactions`` transactions on files
    drawn from its own ``{stream_prefix}.pm{i}`` stream, each recorded
    in ``latency``.
    """
    for i in range(n_files):
        cluster.create_file(_name(i), SHARED_FILE_SIZE)
    sim = cluster.sim
    warm_done = [sim.event() for _ in cluster.clients]
    warm_barrier = sim.all_of(warm_done)

    def txn(client, name: str) -> Generator:
        proto = client.host.params.proto
        yield from client.host.cpu.execute(proto.app_txn_us,
                                           category="app")
        yield from client.open(name)
        yield from client.read(name, 0, SHARED_FILE_SIZE)
        yield from client.close(name)

    def client_main(idx: int) -> Generator:
        client = cluster.clients[idx]
        rng = cluster.rand.stream(f"{stream_prefix}.pm{idx}")
        for i in range(n_files):
            yield from txn(client, _name(i))
        warm_done[idx].succeed(None)
        yield warm_barrier
        for _ in range(transactions):
            name = _name(rng.randrange(n_files))
            start = sim.now
            yield from txn(client, name)
            latency.record(sim.now - start)

    def main() -> Generator:
        procs = [sim.process(client_main(i), name=f"{stream_prefix}-pm{i}")
                 for i in range(len(cluster.clients))]
        yield warm_barrier
        cluster.reset_measurements()
        start = sim.now
        yield sim.all_of(procs)
        return sim.now - start

    return sim.run_process(main())


class PostMarkWorkload:
    """Synchronous open/IO/close transactions over a small-file set."""

    _name = staticmethod(_name)

    def __init__(self, cluster: Cluster, n_files: int,
                 file_size: int = 4 * KB, transactions: int = 2000,
                 warmup_transactions: Optional[int] = None,
                 read_ratio: float = 1.0,
                 create_delete_ratio: float = 0.0,
                 client_index: int = 0, seed_stream: str = "postmark"):
        if not 0.0 <= read_ratio <= 1.0:
            raise ValueError(f"bad read ratio: {read_ratio}")
        if not 0.0 <= create_delete_ratio < 1.0:
            raise ValueError(f"bad create/delete ratio: {create_delete_ratio}")
        self.cluster = cluster
        self.n_files = n_files
        self.file_size = file_size
        self.transactions = transactions
        #: Default warm-up: one full pass over the file set, so every file
        #: has been opened (delegation granted) and — for ODAFS — its
        #: remote references collected, as in the paper's setup.
        self.warmup_transactions = (warmup_transactions
                                    if warmup_transactions is not None
                                    else 2 * n_files)
        self.read_ratio = read_ratio
        self.create_delete_ratio = create_delete_ratio
        self.client_index = client_index
        self.rng = cluster.rand.stream(seed_stream)
        self._created = 0

    def setup(self) -> None:
        """Create the file set on the server (outside measurement)."""
        for i in range(self.n_files):
            self.cluster.create_file(self._name(i), self.file_size)

    def run(self) -> Dict[str, float]:
        return self.cluster.sim.run_process(self._main())

    def _one_transaction(self, client, warming: bool,
                         index: int) -> Generator:
        proto = client.host.params.proto
        # Per-transaction application work (path handling, bookkeeping).
        yield from client.host.cpu.execute(proto.app_txn_us, category="app")
        if (not warming and self.create_delete_ratio
                and self.rng.random() < self.create_delete_ratio):
            name = f"pmx{self._created:06d}"
            self._created += 1
            yield from client.create(name, self.file_size)
            yield from client.remove(name)
            return "create_delete"
        if warming:
            name = self._name(index % self.n_files)  # full coverage pass
        else:
            name = self._name(self.rng.randrange(self.n_files))
        yield from client.open(name)
        if self.rng.random() < self.read_ratio:
            yield from client.read(name, 0, self.file_size)
            kind = "read"
        else:
            yield from client.write(name, 0, self.file_size)
            kind = "write"
        yield from client.close(name)
        return kind

    def _main(self) -> Generator:
        cluster = self.cluster
        client = cluster.clients[self.client_index]
        sim = cluster.sim
        for i in range(self.warmup_transactions):
            yield from self._one_transaction(client, warming=True, index=i)
        cluster.reset_measurements()
        if hasattr(client, "cache") and client.cache is not None:
            client.cache.stats.reset()
        start = sim.now
        kinds = {"read": 0, "write": 0, "create_delete": 0}
        for i in range(self.transactions):
            kind = yield from self._one_transaction(client, warming=False,
                                                    index=i)
            kinds[kind] += 1
        elapsed = sim.now - start
        result = {
            "txns_per_s": self.transactions / elapsed * 1e6,
            "server_cpu": cluster.server_cpu_utilization(),
            "client_cpu": cluster.client_cpu_utilization(self.client_index),
            "reads": kinds["read"],
            "writes": kinds["write"],
            "creates_deletes": kinds["create_delete"],
        }
        cache = getattr(client, "cache", None)
        if cache is not None:
            result["client_cache_hit_ratio"] = cache.hit_ratio()
        return result
