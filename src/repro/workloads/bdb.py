"""Berkeley DB equality-join workload (Fig. 5).

Section 5.1: an application uses an embedded database (Berkeley DB) to
compute a simple equality join over 60 KB records. The database pre-computes
the set of required pages and prefetches them asynchronously, maintaining a
window of outstanding I/Os into its user-level page cache. To vary the
application's computational demand, a configurable amount of each record is
copied from the db cache into the application buffer (1 byte .. 60 KB); the
plot is application throughput versus bytes copied per record.

The model reproduces that structure: network I/O at a fixed 64 KB transfer
size into cache buffers, plus a per-record application copy charged at the
host's application-copy bandwidth.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator

from ..cluster import Cluster
from ..params import KB

#: Share of the records joined before the measurement window opens.
WARMUP_FRACTION = 0.1


class BerkeleyDBJoinWorkload:
    """Join driver on the cluster's first client: prefetch records, copy
    a slice of each to the app."""

    RECORD_BYTES = 60 * KB      #: logical record size (Section 5.1)
    IO_BYTES = 64 * KB          #: network transfer size for one record

    def __init__(self, cluster: Cluster, file_name: str, n_records: int,
                 copy_bytes: int, window: int = 8):
        if not 0 <= copy_bytes <= self.RECORD_BYTES:
            raise ValueError(
                f"copy_bytes out of range: {copy_bytes}")
        self.cluster = cluster
        self.file_name = file_name
        self.n_records = n_records
        self.copy_bytes = copy_bytes
        self.window = window

    @property
    def file_size(self) -> int:
        return self.n_records * self.IO_BYTES

    def run(self) -> Dict[str, float]:
        return self.cluster.sim.run_process(self._main())

    def _fetch_and_process(self, client, record: int, buffer) -> Generator:
        """One record: fetch into the db cache, then the app-side copy."""
        yield from client.read(self.file_name, record * self.IO_BYTES,
                               self.IO_BYTES, buffer)
        if self.copy_bytes:
            yield from client.host.cpu.execute(
                self.copy_bytes / client.host.params.host.app_copy_bw,
                category="app")

    def _main(self) -> Generator:
        cluster = self.cluster
        sim = cluster.sim
        client = cluster.clients[0]
        yield from client.open(self.file_name)
        warmup = max(1, int(self.n_records * WARMUP_FRACTION))
        buffers = [client.host.mem.alloc(self.IO_BYTES, name=f"dbc{j}")
                   for j in range(self.window)]
        pending = deque()
        measure_start = None
        for record in range(self.n_records):
            if record == warmup:
                cluster.reset_measurements()
                measure_start = sim.now
            if len(pending) >= self.window:
                yield pending.popleft()
            proc = sim.process(
                self._fetch_and_process(client, record,
                                        buffers[record % self.window]),
                name="db-record")
            pending.append(proc)
        while pending:
            yield pending.popleft()
        elapsed = sim.now - measure_start
        measured = (self.n_records - warmup) * self.RECORD_BYTES
        yield from client.close(self.file_name)
        return {
            "throughput_mb_s": measured / elapsed,
            "client_cpu": cluster.client_cpu_utilization(0),
            "records": self.n_records,
        }
