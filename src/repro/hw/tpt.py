"""Translation & Protection Table (TPT) and on-NIC TLB.

RDMA-capable NICs translate the virtual addresses carried in remote
requests through a host-resident, device-specific page table (the TPT),
caching translations in an on-board TLB (Section 2.1). For ORDMA the paper
treats pages with translations *loaded in the NIC TLB* as pinned and locked
(Section 4.1); pages merely present in the TPT may be invalidated by the
host at any time, which is exactly what makes optimistic access optimistic.

Safety uses capabilities: a keyed MAC over the exported segment, verified
by the NIC on every ORDMA request (Section 4; implemented here although the
paper's prototype omitted it).
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import itertools
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .memory import PAGE_SIZE, Buffer, Page


class FaultReason(enum.Enum):
    """Why a remote memory access could not proceed (Section 4.1)."""

    INVALID_TRANSLATION = "invalid translation"
    NOT_RESIDENT = "page not resident"
    PAGE_LOCKED = "page locked by host"
    BAD_CAPABILITY = "capability check failed"
    REVOKED = "segment access revoked"
    OUT_OF_BOUNDS = "access outside segment"
    #: Fault-injection reasons: a forced NIC-side rejection, and an
    #: initiator-side recovery timeout (lost request or response).
    INJECTED = "injected fault"
    TIMEOUT = "initiator timeout"


class RemoteAccessFault(Exception):
    """A recoverable ORDMA fault, reported NIC-to-NIC to the initiator.

    Raised inside the initiating process at its yield point; ODAFS clients
    catch it and retry via RPC (Section 4.2).
    """

    def __init__(self, reason: FaultReason, detail: str = ""):
        super().__init__(f"{reason.value}{': ' + detail if detail else ''}")
        self.reason = reason
        self.detail = detail


class ProtectionError(RuntimeError):
    """A *non-optimistic* RDMA hit an invalid mapping: a programming error
    in the protocol stack, not a recoverable condition."""


class Segment:
    """An exported, remotely addressable memory region."""

    _ids = itertools.count(1)

    def __init__(self, buffer: Buffer, capability: Optional[bytes],
                 pinned: bool):
        self.id = next(self._ids)
        self.buffer = buffer
        self.base = buffer.base
        self.length = buffer.size
        self.capability = capability
        self.pinned = pinned
        self.revoked = False

    def contains(self, addr: int, nbytes: int) -> bool:
        return self.base <= addr and addr + nbytes <= self.base + self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Segment id={self.id} base={self.base:#x} "
                f"len={self.length} pinned={self.pinned}>")


#: The MAC key of every NIC's capability authority.
KEY = b"fast03-odafs"


class CapabilityAuthority:
    """Issues and verifies keyed-MAC capabilities for exported segments."""

    def issue(self, segment_id: int, base: int, length: int) -> bytes:
        msg = f"{segment_id}:{base}:{length}".encode()
        return hmac.new(KEY, msg, hashlib.sha256).digest()[:16]

    def verify(self, segment: Segment, token: Optional[bytes]) -> bool:
        if segment.capability is None:
            return True  # capabilities disabled for this segment
        if token is None:
            return False
        expected = self.issue(segment.id, segment.base, segment.length)
        return hmac.compare_digest(expected, token)


class TPT:
    """Host-resident translation & protection table for one NIC."""

    def __init__(self, use_capabilities: bool = True):
        self.authority = CapabilityAuthority()
        self.use_capabilities = use_capabilities
        self._segments: Dict[int, Segment] = {}
        #: page vaddr -> owning segment, for translation lookup
        self._by_page: Dict[int, Segment] = {}

    # -- registration ------------------------------------------------------

    def register(self, buffer: Buffer, pin: bool = True) -> Segment:
        """Export ``buffer``. ``pin=True`` is ordinary RDMA registration;
        ``pin=False`` is an optimistic export whose pages the host may still
        reclaim (the ODAFS server's mode)."""
        seg = Segment(buffer, None, pinned=pin)
        if self.use_capabilities:
            seg.capability = self.authority.issue(seg.id, seg.base, seg.length)
        if pin:
            buffer.pin()
        for vaddr in buffer.page_vaddrs():
            self._by_page[vaddr] = seg
        self._segments[seg.id] = seg
        return seg

    def deregister(self, seg: Segment) -> None:
        if seg.id not in self._segments:
            raise ProtectionError(f"deregister of unknown segment {seg!r}")
        if seg.pinned:
            seg.buffer.unpin()
            seg.pinned = False
        for vaddr in seg.buffer.page_vaddrs():
            self._by_page.pop(vaddr, None)
        del self._segments[seg.id]
        seg.revoked = True

    def revoke(self, seg: Segment) -> None:
        """Locally invalidate the segment's capability (Section 4): future
        ORDMA to it faults, without notifying any client."""
        seg.revoked = True

    # -- lookup -------------------------------------------------------------

    def translate(self, addr: int) -> Optional[Tuple[Segment, Page]]:
        # Note: revoked (but still registered) segments translate; access
        # checks report them as REVOKED so clients can tell a revocation
        # from a stale reference to deregistered memory.
        page_vaddr = addr - (addr % PAGE_SIZE)
        seg = self._by_page.get(page_vaddr)
        if seg is None:
            return None
        page = seg.buffer.page_at(addr)  # None once the buffer is freed
        if page is None:
            return None
        return seg, page

    def check_access(self, addr: int, nbytes: int,
                     token: Optional[bytes]) -> Optional[FaultReason]:
        """Validate an ORDMA access; return a fault reason or None if OK."""
        if nbytes <= 0:
            return FaultReason.OUT_OF_BOUNDS
        first = self.translate(addr)
        if first is None:
            return FaultReason.INVALID_TRANSLATION
        seg, _page = first
        if seg.revoked:
            return FaultReason.REVOKED
        if not seg.contains(addr, nbytes):
            return FaultReason.OUT_OF_BOUNDS
        if self.use_capabilities and not self.authority.verify(seg, token):
            return FaultReason.BAD_CAPABILITY
        offset = addr - seg.base
        for page in seg.buffer.pages_in_range(offset, nbytes):
            if not page.resident:
                return FaultReason.NOT_RESIDENT
            if page.locked_by_host:
                return FaultReason.PAGE_LOCKED
        return None


class NicTLB:
    """On-board translation cache with LRU replacement.

    Loaded translations pin and lock their pages (Section 4.1: the chosen
    NIC/host synchronization treats TLB-resident pages as pinned+locked);
    eviction releases them.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"TLB capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[int, Page]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, page: Page) -> bool:
        """True on hit (entry refreshed), False on miss."""
        if page.vaddr in self._entries:
            self._entries.move_to_end(page.vaddr)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def load(self, page: Page) -> Optional[Page]:
        """Install a translation; returns the evicted page, if any."""
        evicted = None
        if page.vaddr in self._entries:
            self._entries.move_to_end(page.vaddr)
            return None
        if len(self._entries) >= self.capacity:
            _vaddr, evicted = self._entries.popitem(last=False)
            evicted.nic_loaded = False
        self._entries[page.vaddr] = page
        page.nic_loaded = True
        return evicted

    def invalidate(self, page: Page) -> bool:
        """Host-requested invalidation (e.g. before reclaiming the page)."""
        entry = self._entries.pop(page.vaddr, None)
        if entry is not None:
            entry.nic_loaded = False
            return True
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
