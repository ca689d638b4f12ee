"""NFS with untagged RDDP-RPC and VM page re-mapping.

The second RDDP-RPC variant of Section 2.2: "Untagged RDDP-RPC transfers
are also possible and do not require pre-posting. The data payload is
placed in intermediate, page-aligned host buffers and the physical memory
pages of these buffers are re-mapped into the target buffer, provided
that the latter is also page-aligned." (This is the low-overhead NFS with
header splitting and VM page re-mapping evaluated in the authors' earlier
USENIX '02 study.)

Compared to the pre-posting client: no per-I/O NIC doorbell and no
pin/unpin of the user buffer, but a per-page re-mapping cost and a
page-alignment restriction — a misaligned tail still pays one copy.
"""

from __future__ import annotations

from typing import Generator, Optional

from ...hw.memory import PAGE_SIZE, Buffer
from ...sim import Span
from .nfs_direct import NFSDirectClient


class NFSRemapClient(NFSDirectClient):
    """Zero-copy NFS via header splitting + page flipping."""

    def _transfer(self, name: str, offset: int, nbytes: int,
                  app_buffer: Buffer, span: Optional[Span]) -> Generator:
        response = yield from self._call(
            "read", {"name": name, "offset": offset, "nbytes": nbytes,
                     "mode": "inline", "sg": True},
            rddp_untagged=True, span=span)
        if nbytes > 0 and not response.meta.get("rddp_untagged_done"):
            raise RuntimeError(
                "untagged read response was not header-split by the NIC")
        host_p = self.host.params.host
        full_pages, tail = divmod(nbytes, PAGE_SIZE)
        # Page-aligned user buffers (mem.alloc aligns) accept flipped
        # pages; the sub-page tail cannot be flipped and is copied.
        if full_pages:
            yield from self.cpu.execute(
                full_pages * host_p.remap_page_us, category="remap")
            self.stats.incr("pages_remapped", full_pages)
        if tail:
            yield from self.cpu.copy(tail, cached=True)
            self.stats.incr("tail_copies")
        if span is not None and (full_pages or tail):
            span.mark(self.host.name, "client.remap", pages=full_pages,
                      tail=tail)
        app_buffer.data = response.meta.get("rddp_payload")
