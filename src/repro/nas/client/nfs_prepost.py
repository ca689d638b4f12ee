"""NFS pre-posting client: direct transfer file I/O via RDDP-RPC.

The kernel client of Section 3.2: it bypasses the buffer cache, pins the
user buffer, tags it at the NIC with the RPC transaction number (one
doorbell per I/O), and the NIC header-splits the response so the payload
lands directly in the user buffer — zero copies on the receive path.
Registration is on-the-fly per I/O (kernel clients cannot cache user
buffer registrations transparently — Section 3), which together with the
per-fragment header processing is why its client CPU curve flattens for
large blocks (Fig. 4).
"""

from __future__ import annotations

from typing import Generator, Optional

from ...hw.memory import Buffer
from ...proto.rpc import RPC_HEADER_BYTES
from ...sim import Span
from .nfs_direct import NFSDirectClient


class NFSPrepostClient(NFSDirectClient):
    """Zero-copy kernel NFS client using pre-posted tagged buffers."""

    def _transfer(self, name: str, offset: int, nbytes: int,
                  app_buffer: Buffer, span: Optional[Span]) -> Generator:
        # rddp_buffer drives pin + tag pre-post + unpin inside the RPC
        # layer; sg=True asks the server for a scatter/gather (copy-free)
        # reply straight from its file cache pages.
        response = yield from self._call(
            "read", {"name": name, "offset": offset, "nbytes": nbytes,
                     "mode": "inline", "sg": True},
            rddp_buffer=app_buffer, span=span)
        if nbytes > 0 and not response.meta.get("rddp_split_done"):
            raise RuntimeError(
                "pre-posted read response was not header-split by the NIC")

    def write(self, name: str, offset: int, nbytes: int) -> Generator:
        # Outgoing path: scatter/gather DMA straight from the (pinned)
        # user buffer; no staging copy.
        span = self._start_span("write", name=name, offset=offset,
                                nbytes=nbytes)
        yield from self._syscall()
        host_p = self.host.params.host
        pages = (nbytes + 4095) // 4096
        yield from self.cpu.execute(pages * host_p.register_page_us,
                                    category="register")
        response = yield from self._call(
            "write", {"name": name, "offset": offset, "nbytes": nbytes},
            req_bytes=RPC_HEADER_BYTES + nbytes, span=span)
        yield from self.cpu.execute(pages * host_p.deregister_page_us,
                                    category="register")
        self._count_io("writes", "write_bytes", nbytes, span)
        return response.meta
