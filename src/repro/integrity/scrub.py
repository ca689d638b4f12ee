"""Background scrubber: proactive verification of a server's cached blocks.

Read-path verification only protects blocks somebody reads; bit rot in a
cold corner of the cache sits undetected until the worst moment (the
primary just failed and the replica turns out to be rotten too). The
scrubber closes that window: a sim-time process wakes every
``params.integrity.scrub_interval_us``, verifies the next
``scrub_blocks_per_pass`` resident blocks round-robin against the
server's checksum store, and runs the server's re-read/repair ladder on
any mismatch — repairing from disk or quarantining (evicting) copies
that cannot be repaired.

The daemon runs until a ``stop_on`` event (typically the measured
workload's process) has triggered, so the event heap can drain once the
run is over.

Everything lands in the server's ``integrity`` counter under ``scrub.*``
(passes, blocks, detected, repaired, quarantined), so campaign output
and telemetry see the scrubber through the same registry as read-path
verification.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Event
from .checksum import IntegrityError


class Scrubber:
    """Walks one file server's cache, verifying and repairing blocks."""

    def __init__(self, server):
        if server.checksums is None:
            raise ValueError("scrubber requires integrity checksums")
        self.server = server
        self.stats = server.integrity
        self._running = False
        #: Round-robin resume position over the cache's key order.
        self._cursor = 0

    def start(self, stop_on: Event) -> None:
        """Spawn the scrub daemon, which runs until ``stop_on`` has
        triggered (idempotent start is an error)."""
        if self._running:
            raise RuntimeError("scrubber already running")
        self._running = True
        self.server.host.sim.spawn(self._daemon(stop_on))

    def _daemon(self, stop_on: Event) -> Generator:
        interval = self.server.host.params.integrity.scrub_interval_us
        sim = self.server.host.sim
        while True:
            yield sim.timeout(interval)
            if stop_on.triggered:
                return
            yield from self.scrub_pass()

    def scrub_pass(self) -> Generator:
        """Verify one batch of resident blocks, repairing mismatches."""
        server = self.server
        batch = server.host.params.integrity.scrub_blocks_per_pass
        keys = server.cache.keys()
        if not keys:
            self.stats.incr("scrub.passes")
            return
        if self._cursor >= len(keys):
            self._cursor = 0
        for key in keys[self._cursor:self._cursor + batch]:
            # Peek, not lookup: scrubbing must not perturb LRU order or
            # hit/miss accounting of the cache it audits.
            block = server.cache.peek(key)
            if block is None:
                continue
            yield from server._charge_checksum()
            self.stats.incr("scrub.blocks")
            if server.checksums.verify(key, block.data):
                continue
            self.stats.incr("scrub.detected")
            try:
                yield from server._repair_block(key)
            except IntegrityError:
                # _repair_block already counted the quarantine; the
                # scrubber's job is done — the bad copy is evicted and
                # the next read pays a (verified) disk fill.
                self.stats.incr("scrub.quarantined")
            else:
                self.stats.incr("scrub.repaired")
        self._cursor += batch
        self.stats.incr("scrub.passes")
