"""Streaming read-ahead workload (Fig. 3 / Fig. 4).

A simple client reads a file sequentially with asynchronous read-ahead and
no data processing, exactly as Section 5.1: a window of outstanding I/Os
at a configurable application block size, the file warm in the server
cache, kernel readahead off (the client itself drives all concurrency).

Measurements start after a warm-up fraction so reported throughput and
client CPU utilization are steady-state.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator

from ..cluster import Cluster

#: Share of the blocks read before the measurement window opens.
WARMUP_FRACTION = 0.1


class SequentialReadWorkload:
    """Asynchronous sequential reads by the cluster's first client."""

    def __init__(self, cluster: Cluster, file_name: str, file_size: int,
                 block_size: int, window: int = 8):
        if file_size % block_size:
            raise ValueError("file size must be a multiple of the block size")
        self.cluster = cluster
        self.file_name = file_name
        self.file_size = file_size
        self.block_size = block_size
        self.window = window

    def run(self) -> Dict[str, float]:
        """Execute to completion; returns throughput and utilization."""
        result = self.cluster.sim.run_process(self._main())
        return result

    def _main(self) -> Generator:
        cluster = self.cluster
        client = cluster.clients[0]
        sim = cluster.sim
        yield from client.open(self.file_name)
        n_blocks = self.file_size // self.block_size
        warmup_blocks = max(1, int(n_blocks * WARMUP_FRACTION))
        buffers = [client.host.mem.alloc(self.block_size,
                                         name=f"app{j}")
                   for j in range(self.window)]
        pending = deque()
        measure_start = None
        for i in range(n_blocks):
            if i == warmup_blocks:
                cluster.reset_measurements()
                measure_start = sim.now
            if len(pending) >= self.window:
                oldest = pending.popleft()
                yield oldest
            proc = client.read_async(self.file_name, i * self.block_size,
                                     self.block_size,
                                     buffers[i % self.window])
            pending.append(proc)
        while pending:
            yield pending.popleft()
        elapsed = sim.now - measure_start
        measured_bytes = (n_blocks - warmup_blocks) * self.block_size
        yield from client.close(self.file_name)
        return {
            "throughput_mb_s": measured_bytes / elapsed,
            "client_cpu": cluster.client_cpu_utilization(0),
            "server_cpu": cluster.server_cpu_utilization(),
            "blocks": n_blocks,
        }
