"""Server VM pressure: a page-reclaim daemon over the file cache.

Section 4.2.1 arranges the ODAFS export map so that "NIC TLB invalidations
are due to the OS reclaiming a VM page due to memory pressure" — this
module provides that reclaim activity. A daemon periodically evicts the
coldest file-cache blocks: exported blocks get their NIC TLB entries shot
down and their TPT registrations dropped, so clients holding stale
references fault on their next ORDMA and recover over RPC — the full
optimistic consistency loop, exercised dynamically.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional

from ...sim import Counter, Event, Simulator
from .filecache import BlockKey, ServerFileCache


class MemoryPressure:
    """Periodic reclaim of cold file-cache blocks."""

    def __init__(self, sim: Simulator, cache: ServerFileCache,
                 interval_us: float, blocks_per_round: int = 1,
                 rng: Optional[random.Random] = None):
        if interval_us <= 0:
            raise ValueError(f"interval must be positive: {interval_us}")
        if blocks_per_round < 1:
            raise ValueError(
                f"blocks_per_round must be >= 1: {blocks_per_round}")
        self.sim = sim
        self.cache = cache
        self.interval_us = interval_us
        self.blocks_per_round = blocks_per_round
        self.rng = rng
        self.stats = Counter()
        self._running = False

    def start(self, stop_on: Event) -> None:
        """Run the daemon until ``stop_on`` (e.g. the workload's process)
        has triggered, so the simulation's event heap can drain."""
        if self._running:
            raise RuntimeError("pressure daemon already running")
        self._running = True
        self.sim.spawn(self._daemon(stop_on))

    def _victims(self) -> List[BlockKey]:
        """Coldest resident blocks (LRU order), optionally jittered."""
        order = list(self.cache._policy)  # LRU -> MRU
        if self.rng is not None and len(order) > self.blocks_per_round:
            # Sample from the cold half to avoid always hitting the exact
            # LRU block (real reclaim scans are approximate).
            cold = order[:max(self.blocks_per_round, len(order) // 2)]
            self.rng.shuffle(cold)
            return cold[:self.blocks_per_round]
        return order[:self.blocks_per_round]

    def _daemon(self, stop_on: Event) -> Generator:
        while True:
            yield self.sim.timeout(self.interval_us)
            if stop_on.triggered:
                return
            for key in self._victims():
                if self.cache.invalidate(key):
                    self.stats.incr("reclaimed")
