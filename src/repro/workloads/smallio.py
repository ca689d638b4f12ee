"""Multi-client server-throughput workload (Fig. 7).

Section 5.2: two clients sequentially read a large file, warm in the
server cache, twice, using a large application block size. Application
reads larger than the client cache block trigger the cache's internal
read-ahead up to the request size, so the *network* I/O unit is the cache
block size — swept 4 KB .. 64 KB. Server throughput is measured during the
second pass, when the clients' caches still miss (file >> cache) but, for
ODAFS, every block's remote reference is already in the directory, so the
second pass runs entirely over client-initiated ORDMA with no server CPU.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..cluster import Cluster
from ..sim import LatencyStats

#: Reads of the whole file per client; the last pass is measured.
PASSES = 2


class MultiClientReadWorkload:
    """N clients streaming the same warm file through their caches.

    ``latency`` (optional) collects per-application-read response times
    during the measured final pass — the client-scaling sweep plots its
    percentiles against client count (queueing delay at a loaded server,
    Section 2.3).
    """

    def __init__(self, cluster: Cluster, file_name: str, file_size: int,
                 app_block_size: int,
                 latency: Optional[LatencyStats] = None):
        if file_size % app_block_size:
            raise ValueError(
                "file size must be a multiple of the app block size")
        self.cluster = cluster
        self.file_name = file_name
        self.file_size = file_size
        self.app_block_size = app_block_size
        self.latency = latency

    def run(self) -> Dict[str, float]:
        """Run to completion; returns the measured-pass metrics dict."""
        return self.cluster.sim.run_process(self._main())

    def _one_pass(self, client, record: bool = False) -> Generator:
        n = self.file_size // self.app_block_size
        sim = self.cluster.sim
        for i in range(n):
            start = sim.now
            yield from client.read(self.file_name,
                                   i * self.app_block_size,
                                   self.app_block_size)
            if record and self.latency is not None:
                self.latency.record(sim.now - start)

    def _client_main(self, client, barrier_events) -> Generator:
        yield from client.open(self.file_name)
        for p in range(PASSES):
            yield from self._one_pass(client, record=(p == PASSES - 1))
            # Synchronize between passes so the measured pass is clean.
            mine, everyone = barrier_events[p]
            mine.succeed(None)
            yield everyone

    def _main(self) -> Generator:
        cluster = self.cluster
        sim = cluster.sim
        clients = cluster.clients
        barriers = []
        for p in range(PASSES):
            events = [(sim.event()) for _ in clients]
            barriers.append(events)
        # Per-client view: (my event, all-of event for the pass).
        pass_allofs = [sim.all_of(events) for events in barriers]
        procs = []
        for idx, client in enumerate(clients):
            view = [(barriers[p][idx], pass_allofs[p])
                    for p in range(PASSES)]
            procs.append(sim.process(self._client_main(client, view),
                                     name=f"smallio-{idx}"))
        # Measure the final pass: wait for the next-to-last barrier.
        yield pass_allofs[-2]
        cluster.reset_measurements()
        start = sim.now
        yield sim.all_of(procs)
        elapsed = sim.now - start
        measured_bytes = len(clients) * self.file_size
        return {
            "throughput_mb_s": measured_bytes / elapsed,
            "server_cpu": cluster.server_cpu_utilization(),
            "client_cpus": [cluster.client_cpu_utilization(i)
                            for i in range(len(clients))],
        }
