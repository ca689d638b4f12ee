"""Parametric disk model.

All the paper's experiments run against a warm server file cache, so the
disk matters only for the cold-cache ablations (low ORDMA success rate —
Section 4.2.2) and for completeness of the server read path. The model is
a single-spindle latency + bandwidth server with FIFO queueing.
"""

from __future__ import annotations

from typing import Generator

from ..params import StorageParams
from ..sim import Counter, Resource, Simulator


class DiskError(RuntimeError):
    """An I/O failed even after the driver's internal retries."""


class Disk:
    """One disk: fixed average positioning latency plus transfer time."""

    def __init__(self, sim: Simulator, params: StorageParams,
                 name: str = "disk"):
        self.sim = sim
        self.params = params
        self.name = name
        self._spindle = Resource(sim, name=name)
        self.stats = Counter()
        #: Fault-injection state (repro.faults.DiskFaults); ``None`` means
        #: a perfect disk and the access path pays no checks.
        self.faults = None

    def read(self, nbytes: int) -> Generator:
        """Read ``nbytes`` from a random position."""
        yield from self._access(nbytes, "reads")

    def write(self, nbytes: int) -> Generator:
        """Write ``nbytes`` at a random position."""
        yield from self._access(nbytes, "writes")

    def _access(self, nbytes: int, counter: str) -> Generator:
        if nbytes < 0:
            raise ValueError(f"negative disk I/O size: {nbytes}")
        if self.sim.tracer is not None:
            self.sim.tracer.emit(self.name, "disk-io-start", op=counter,
                                 bytes=nbytes)
        attempts = 0
        while True:
            failed = False
            extra_us = 0.0
            if self.faults is not None:
                failed, extra_us = self.faults.io_plan()
            req = self._spindle.request()
            yield req
            try:
                yield self.sim.timeout(self.params.disk_latency_us
                                       + nbytes / self.params.disk_bw)
                if extra_us > 0.0:
                    yield self.sim.timeout(extra_us)
            finally:
                self._spindle.release(req)
            if not failed:
                break
            # Transient error: the driver retries the whole access, each
            # attempt paying full positioning + transfer time again.
            attempts += 1
            self.stats.incr("io_errors")
            if attempts > self.faults.max_retries:
                raise DiskError(
                    f"{self.name}: {counter} I/O of {nbytes} bytes failed "
                    f"after {attempts} attempts")
        self.stats.incr(counter)
        self.stats.incr("bytes", nbytes)
        if self.sim.tracer is not None:
            self.sim.tracer.emit(self.name, "disk-io-complete", op=counter,
                                 bytes=nbytes)
