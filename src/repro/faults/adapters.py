"""Per-layer fault state consulted by the hardware models.

Each adapter holds the knobs for one component class and answers one
cheap question on that component's hot path ("does this frame survive?",
"does this doorbell stall?"). The components themselves only carry a
``faults`` attribute that defaults to ``None`` — the adapters are
installed lazily by :class:`repro.faults.Injector`, so an un-injected
simulation never pays for (or is perturbed by) any of this.

Two determinism rules hold throughout:

* an adapter draws from its RNG **only when the matching probability is
  non-zero** (or a one-shot trap is set), so attaching an all-zero
  adapter is bit-identical to no adapter;
* every injected fault is accounted exactly once, through :meth:`_note`,
  which bumps the shared counter *and* emits a ``fault`` trace event —
  counters and tracer can never diverge.

Every probabilistic mode decides through :meth:`LayerFaults._fires`: a
pending one-shot trap fires first and is noted ``forced``; otherwise the
RNG is drawn, and only when the probability is non-zero.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Tuple

from ..integrity.checksum import corrupt_payload
from ..sim import Counter, Simulator, trace_emit


class LayerFaults:
    """Common plumbing: RNG, shared counters, trace emission."""

    #: Counter prefix and the ``cls`` field of emitted fault events.
    layer = "base"

    def __init__(self, sim: Simulator, rng: random.Random,
                 stats: Optional[Counter] = None, component: str = ""):
        self.sim = sim
        self.rng = rng
        self.stats = stats if stats is not None else Counter()
        self.component = component or self.layer

    def _note(self, mode: str, **detail) -> None:
        """Account one injected fault: counter + ``fault`` trace event."""
        self.stats.incr(f"{self.layer}.{mode}")
        trace_emit(self.sim, self.component, "fault", cls=self.layer,
                   mode=mode, **detail)

    def _fires(self, mode: str, p: float, trap: str = "",
               **detail) -> bool:
        """Decide one ``mode`` fault and note it if it fires.

        ``trap`` names a one-shot counter attribute (``drop_next``, ...):
        while it is positive the fault fires without a draw, is noted
        ``forced`` and the counter drops by one. Otherwise the RNG is
        drawn against ``p``, and only when ``p > 0``.
        """
        if trap and getattr(self, trap) > 0:
            setattr(self, trap, getattr(self, trap) - 1)
            self._note(mode, **detail, forced=True)
            return True
        if p > 0.0 and self.rng.random() < p:
            self._note(mode, **detail)
            return True
        return False


class LinkFaults(LayerFaults):
    """Switch-level faults: frame drop and forwarding delay.

    A dropped frame models any loss the receiver detects (a CRC-failed
    frame is dropped there too); recovery is the ordinary retransmission
    machinery. Corruption that *evades* detection and flows to the
    application as clean data is a different failure class entirely —
    see :attr:`DiskFaults.bitrot_p` and :attr:`NicFaults.ordma_corrupt_p`,
    which only ``params.integrity`` checksums can catch. The delay mode
    (``delay_p``/``delay_us``, or the ``delay_next`` trap) delivers a
    frame late, which is how a test makes a retransmission overtake its
    original. ``drop_next`` / ``delay_next`` are one-shot traps for
    targeted tests: they fire on the next frame(s) regardless of the
    probabilities.
    """

    layer = "link"

    def __init__(self, sim: Simulator, rng: random.Random,
                 stats: Optional[Counter] = None, component: str = "switch"):
        super().__init__(sim, rng, stats, component)
        self.drop_p = 0.0
        self.delay_p = 0.0
        self.delay_us = 0.0
        self.drop_next = 0
        self.delay_next = 0

    def frame_fate(self, src: str, dst: str) -> Tuple[str, float]:
        """Decide one frame's fate: ('ok'|'drop', extra delay us)."""
        if self._fires("drop", self.drop_p, "drop_next", src=src, dst=dst):
            return "drop", 0.0
        if self._fires("delay", self.delay_p, "delay_next", src=src,
                       dst=dst, us=self.delay_us):
            return "ok", self.delay_us
        return "ok", 0.0


class NicFaults(LayerFaults):
    """NIC faults: doorbell stalls and forced ORDMA rejections.

    A doorbell stall models firmware backpressure on the host-facing
    command path; an ORDMA rejection makes the *target* NIC fault an
    optimistic access it would otherwise have served, exercising the
    client's RPC fallback at arbitrary rates without disturbing the
    server cache.
    """

    layer = "nic"

    def __init__(self, sim: Simulator, rng: random.Random,
                 stats: Optional[Counter] = None, component: str = "nic"):
        super().__init__(sim, rng, stats, component)
        self.stall_p = 0.0
        self.stall_us = 0.0
        self.stall_next = 0
        self.ordma_reject_p = 0.0
        self.ordma_reject_next = 0
        #: Silent in-flight corruption of served optimistic gets: the
        #: target NIC returns mangled data with *no* fault raised (the
        #: checksums-are-offloaded gap of Section 5 — nothing on the
        #: direct path validates what the DMA engine ships).
        self.ordma_corrupt_p = 0.0
        self.ordma_corrupt_next = 0

    def doorbell_delay(self) -> float:
        """Extra stall (us) for the doorbell being rung now, or 0.0."""
        if self._fires("doorbell_stall", self.stall_p, "stall_next",
                       us=self.stall_us):
            return self.stall_us
        return 0.0

    def ordma_reject(self) -> bool:
        """Should the target NIC fault this optimistic access?"""
        return self._fires("ordma_reject", self.ordma_reject_p,
                           "ordma_reject_next")

    def ordma_corrupt(self) -> bool:
        """Should this served optimistic get carry corrupted data?

        Unlike :meth:`ordma_reject` nothing faults: the initiator
        receives a normal completion with a wrong payload. Only a
        client-side checksum (``params.integrity``) can tell.
        """
        return self._fires("ordma_corrupt", self.ordma_corrupt_p,
                           "ordma_corrupt_next")


class DiskFaults(LayerFaults):
    """Disk faults: transient I/O errors, latency spikes, and *silent*
    data corruption.

    Errors are transient (a reread succeeds with probability
    ``1 - error_p``); the disk layer retries internally up to
    ``max_retries`` times before surfacing ``DiskError`` to the file
    server, each retry paying the full access time again.

    Bit rot (``bitrot_p`` or the ``bitrot_next`` trap) and a misdirected
    write (the ``misdirect_next`` trap) are different in kind: the access
    *succeeds* and hands back wrong data — decayed media on the read
    path, a write steered to the wrong sector on the write path. No
    error surfaces anywhere; only checksum verification
    (``params.integrity``) can detect either.
    """

    layer = "disk"

    def __init__(self, sim: Simulator, rng: random.Random,
                 stats: Optional[Counter] = None, component: str = "disk"):
        super().__init__(sim, rng, stats, component)
        self.error_p = 0.0
        self.error_next = 0
        self.delay_p = 0.0
        self.delay_us = 0.0
        self.max_retries = 8
        self.bitrot_p = 0.0
        self.bitrot_next = 0
        self.misdirect_next = 0

    def io_plan(self) -> Tuple[bool, float]:
        """Plan one access: (fails?, extra latency us)."""
        if self._fires("io_error", self.error_p, "error_next"):
            return True, 0.0
        if self._fires("delay", self.delay_p, us=self.delay_us):
            return False, self.delay_us
        return False, 0.0

    def bitrot_payload(self, data: Any) -> Any:
        """Filter one payload read from the platter: bit rot wraps it as
        silently corrupted (the read itself succeeded)."""
        if self._fires("bitrot", self.bitrot_p, "bitrot_next"):
            return corrupt_payload(data, "bitrot")
        return data

    def misdirect_payload(self, data: Any) -> Any:
        """Filter one written payload: a misdirected write lands on the
        wrong sector, so the block's stored copy is silently wrong while
        the write completes successfully. Only the trap fires it."""
        if self._fires("misdirect", 0.0, "misdirect_next"):
            return corrupt_payload(data, "misdirect")
        return data


class ServerFaults(LayerFaults):
    """Server process crash/restart, consulted by the RPC dispatch loop.

    A crash pauses the RPC server for ``downtime_us`` (requests arriving
    meanwhile are silently dropped — clients recover via retransmission)
    and fires the server's ``on_crash`` callback, which the injector
    wires to clear the file cache: a restarted server comes back cold,
    so every exported ORDMA reference held by clients is now stale.
    """

    layer = "server"

    def __init__(self, sim: Simulator, rng: random.Random,
                 stats: Optional[Counter] = None, component: str = "server"):
        super().__init__(sim, rng, stats, component)
        self.crash_p = 0.0
        self.downtime_us = 2000.0

    def crash_now(self, rpc_server,
                  downtime_us: Optional[float] = None) -> bool:
        """Crash ``rpc_server`` immediately (no-op if already down)."""
        downtime = self.downtime_us if downtime_us is None else downtime_us
        if not rpc_server.crash(downtime):
            return False
        self._note("crash", downtime_us=downtime)
        return True

    def maybe_crash(self, rpc_server) -> bool:
        """Roll the per-request crash dice for an arriving request."""
        if self.crash_p > 0.0 and self.rng.random() < self.crash_p:
            return self.crash_now(rpc_server)
        return False
