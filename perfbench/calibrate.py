"""Host-speed calibration: a fixed allocation-heavy loop.

The benchmark's host is shared. Its speed for this kind of code swings by
up to 1.8x over tens of seconds, which no statistic over one run can
remove. So the benchmark times this loop between passes and reports
times scaled to a host on which one chunk of it takes :data:`REFERENCE_S`
(``run.SENSITIVITY`` says how strongly).

The loop does what dominates the simulator's host time: it builds many
small slotted objects, files them in a dict keyed by address (as
``AddressSpace`` files ``Page`` objects and the kernel files events), and
reads a stride of them back. It works in :data:`CHUNKS` chunks of
:data:`PER_CHUNK` objects, so it raises the process's peak memory by
about 2 MB, less than any workload does, and it reports the median chunk
time, which a brief preemption does not move.

It runs with the cyclic collector off: a collection triggered inside it
would walk every object the simulator left alive, so the loop's time
would depend on the code it is meant to measure. It lives in the
benchmark, not in ``src/``, so no change to the simulator moves it.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Seconds one chunk takes on the reference host: near the fastest seen
#: (3.1-3.5 ms) on a shared 2.1 GHz Xeon vCPU.
REFERENCE_S = 0.0035
#: The loop's fixed size; :data:`REFERENCE_S` belongs to ``PER_CHUNK``.
CHUNKS = 45
PER_CHUNK = 10_000

PAGE = 4096


class _Record:
    __slots__ = ("vaddr", "pinned", "resident", "owner", "data")

    def __init__(self, vaddr: int):
        self.vaddr = vaddr
        self.pinned = 0
        self.resident = True
        self.owner = None
        self.data = None


def calibrate() -> float:
    """Host seconds one chunk of the fixed loop takes right now (the
    median over :data:`CHUNKS` chunks)."""
    gc.disable()
    try:
        times = []
        total = 0
        for chunk in range(CHUNKS):
            start = time.perf_counter()
            base = chunk * PER_CHUNK * PAGE
            table = {}
            for i in range(PER_CHUNK):
                vaddr = base + i * PAGE
                table[vaddr] = _Record(vaddr)
            for vaddr in range(base, base + PER_CHUNK * PAGE, 7 * PAGE):
                total += table[vaddr].pinned
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        gc.enable()
