"""Optimistic RDMA: client-initiated remote memory access without RPC.

The initiator holds a :class:`RemoteRef` — a remote virtual address plus
its protecting capability, collected from piggybacked RPC responses — and
sends gets that the *server CPU never sees* (Section 4). The access
succeeds only if the reference is still valid, resident and unlocked at
the target; otherwise the target NIC reports a recoverable exception and
the caller falls back to RPC. Writes go by RPC: ORDMA could move a
write's bytes, but the file's metadata still needs the server CPU
(Section 4.2.2), and no experiment measures ORDMA writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..hw.host import Host
from ..hw.memory import Buffer
from ..sim import Counter, rate_probe


@dataclass(frozen=True)
class RemoteRef:
    """A reference to exported server memory, as piggybacked to clients."""

    host: str          #: server host name
    addr: int          #: virtual address in the server's export space
    nbytes: int        #: length of the exported block
    capability: Optional[bytes] = None
    #: Expected block checksum, piggybacked when the server runs with
    #: ``params.integrity`` so the *client* can vet direct reads the
    #: server CPU never sees; ``None`` when integrity is off.
    csum: Optional[int] = None

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError(f"empty remote reference: {self.nbytes}")


class ORDMAInitiator:
    """The client side of optimistic gets."""

    def __init__(self, host: Host):
        self.host = host
        self.stats = Counter()

    def gauges(self):
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`:
        the windowed rate of optimistic reads sent (ops/s)."""
        sim = self.host.sim
        return {
            "reads_s": rate_probe(
                sim, lambda: float(self.stats.get("reads")), scale=1e6),
            # Always 0: nothing writes by ORDMA. The series stays so that
            # telemetry JSON, trace dumps and Perfetto exports keep their
            # bytes; dropping it is an output change for the run record.
            "writes_s": lambda: 0.0,
        }

    def read(self, ref: RemoteRef, local: Optional[Buffer] = None,
             nbytes: Optional[int] = None, span=None) -> Generator:
        """Optimistic read of ``ref`` into ``local``; returns the payload.

        Raises :class:`repro.hw.RemoteAccessFault` at the yield point when
        the server NIC rejects the access; callers retry via RPC.
        """
        self.stats.incr("reads")
        data = yield from self.host.nic.rdma_get(
            ref.host, ref.addr, nbytes or ref.nbytes, local_buffer=local,
            capability=ref.capability, span=span)
        if span is not None:
            span.mark(self.host.name, "ordma.complete",
                      bytes=nbytes or ref.nbytes)
        return data
