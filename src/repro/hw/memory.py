"""Host memory model: pages, buffers, address spaces, pinning.

The simulation does not move real bytes; a :class:`Buffer` carries a
``data`` object (for end-to-end correctness checks) plus enough virtual
memory structure for the mechanisms under study — pinning for DMA, page
residency, host/NIC locking — to behave as the paper describes. ORDMA
faults, TPT invalidation and registration costs all hinge on this state.

Pages are built on demand. :meth:`AddressSpace.alloc` records only a
buffer's base and size. Until something asks for one of its pages, every
page of the buffer is in one shared state — resident, not locked by the
host, not loaded in a NIC TLB — with one pin count for the whole buffer,
so pinning, unpinning and freeing it are O(1). The first call of
:attr:`Buffer.pages`, :meth:`Buffer.pages_in_range` or
:meth:`Buffer.page_at` builds the buffer's :class:`Page` objects, each
carrying the current pin count. The callers that do so are the TPT
translation and access check, the NIC TLB walk and the ODAFS export's
TLB preload: the only paths that can give a page a state of its own
(Section 4.1: loaded in the NIC TLB, evicted or locked by the host). So
a page that has not been built has the shared state, every call returns
and raises the same either way, and simulated results cannot depend on
when pages get built. GM receive rings (128 pinned 520 KB slots per
endpoint) are never translated, so their pages are never built. The TPT
indexes the pages of registered segments itself and asks the segment's
buffer for the page, so an address space keeps no address index.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

PAGE_SIZE = 4096


class MemoryError_(RuntimeError):
    """Host memory misuse (bad free, pin/unpin imbalance, exhaustion)."""


class Page:
    """One virtual memory page with the state the NIC cares about."""

    __slots__ = ("vaddr", "resident", "pin_count", "locked_by_host", "nic_loaded")

    def __init__(self, vaddr: int, pin_count: int = 0):
        self.vaddr = vaddr
        self.resident = True
        self.pin_count = pin_count
        #: The host VM system holds this page (e.g. mid-reclaim); conflicting
        #: NIC access must fault rather than race (Section 4.1).
        self.locked_by_host = False
        #: Translation currently loaded in a NIC TLB => treated as pinned and
        #: locked by the NIC (Section 4.1's chosen synchronization design).
        self.nic_loaded = False

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0 or self.nic_loaded

    def pin(self) -> None:
        if not self.resident:
            raise MemoryError_(f"cannot pin non-resident page {self.vaddr:#x}")
        self.pin_count += 1

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise MemoryError_(f"unpin of unpinned page {self.vaddr:#x}")
        self.pin_count -= 1

    def evict(self) -> None:
        """Page the page out (host reclaim). Fails if pinned."""
        if self.pinned:
            raise MemoryError_(f"cannot evict pinned page {self.vaddr:#x}")
        self.resident = False

    def page_in(self) -> None:
        self.resident = True


class Buffer:
    """A contiguous virtually addressed region.

    ``data`` is the logical content (any Python object); protocol code moves
    it between buffers to let tests verify end-to-end delivery. Until its
    pages are built, ``_pins`` is the pin count all of them share.
    """

    __slots__ = ("space", "base", "size", "data", "name", "_pages", "_pins")

    def __init__(self, space: "AddressSpace", base: int, size: int,
                 name: str = ""):
        self.space = space
        self.base = base
        self.size = size
        self.data: Any = None
        self.name = name
        self._pages: Optional[List[Page]] = None
        self._pins = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Buffer {self.name or hex(self.base)} size={self.size}>"

    @property
    def pages(self) -> List[Page]:
        """The buffer's pages, built (with the shared pin count) on the
        first call."""
        pages = self._pages
        if pages is None:
            base, pins = self.base, self._pins
            pages = self._pages = [Page(base + i * PAGE_SIZE, pins)
                                   for i in range(self.page_count)]
        return pages

    def page_vaddrs(self) -> range:
        """Page-aligned addresses of the buffer's pages (builds none)."""
        return range(self.base, self.base + self.page_count * PAGE_SIZE,
                     PAGE_SIZE)

    def pin(self) -> None:
        if self._pages is None:
            self._pins += 1  # shared state: every page is resident
            return
        for page in self._pages:
            page.pin()

    def unpin(self) -> None:
        if self._pages is None:
            if self._pins <= 0:
                raise MemoryError_(f"unpin of unpinned page {self.base:#x}")
            self._pins -= 1
            return
        for page in self._pages:
            page.unpin()

    @property
    def page_count(self) -> int:
        return (self.size + PAGE_SIZE - 1) // PAGE_SIZE

    def _pinned_vaddr(self) -> Optional[int]:
        """Address of the first pinned page, or None (builds none)."""
        if self._pages is None:
            return self.base if self._pins else None
        for page in self._pages:
            if page.pinned:
                return page.vaddr
        return None

    def page_at(self, vaddr: int) -> Optional[Page]:
        """The page holding ``vaddr``; None outside the buffer's pages or
        once the buffer is freed."""
        index = (vaddr - self.base) // PAGE_SIZE
        if (index < 0 or index * PAGE_SIZE >= self.size
                or self.space._buffers.get(self.base) is not self):
            return None
        return self.pages[index]

    def pages_in_range(self, offset: int, nbytes: int) -> List[Page]:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise MemoryError_(
                f"range [{offset}, {offset + nbytes}) outside buffer of "
                f"size {self.size}"
            )
        first = offset // PAGE_SIZE
        last = (offset + max(nbytes, 1) - 1) // PAGE_SIZE
        return self.pages[first:last + 1]


class AddressSpace:
    """A virtual address space: allocation, lookup, reclaim.

    The ODAFS server maps exported file blocks in a *private 64-bit*
    address space touched only by the NIC (Section 4.2.1); clients and the
    kernel use ordinary spaces. Both are instances of this class.
    """

    _ids = itertools.count()

    def __init__(self, name: str = "", base: int = 0x1000_0000,
                 total_bytes: Optional[int] = None):
        self.name = name or f"as{next(self._ids)}"
        self._next = base
        #: Live buffers by base, in allocation (= address) order.
        self._buffers: Dict[int, Buffer] = {}
        self.total_bytes = total_bytes
        self.allocated_bytes = 0

    def alloc(self, size: int, name: str = "") -> Buffer:
        """Allocate a page-aligned buffer of ``size`` bytes."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive: {size}")
        if self.total_bytes is not None and (
                self.allocated_bytes + size > self.total_bytes):
            raise MemoryError_(
                f"address space {self.name!r} exhausted: "
                f"{self.allocated_bytes} + {size} > {self.total_bytes}"
            )
        base = self._next
        buf = Buffer(self, base, size, name=name)
        self._next += buf.page_count * PAGE_SIZE
        self._buffers[base] = buf
        self.allocated_bytes += size
        return buf

    def free(self, buf: Buffer) -> None:
        """Release ``buf``. Checks every page before removing any, so a
        refused free leaves the buffer fully mapped."""
        if self._buffers.get(buf.base) is not buf:
            raise MemoryError_(f"double free or foreign buffer {buf!r}")
        vaddr = buf._pinned_vaddr()
        if vaddr is not None:
            raise MemoryError_(
                f"freeing buffer {buf!r} with pinned page {vaddr:#x}"
            )
        del self._buffers[buf.base]
        self.allocated_bytes -= buf.size
