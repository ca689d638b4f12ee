"""NFS hybrid client: RPC over UDP + server-initiated RDMA data transfer.

The kernel client of Section 3.1: the wire protocol is extended to carry
remote memory pointers (like DAFS) while the NFS client API is unchanged
(like NFS-RDMA). The client registers user buffers with the NIC and caches
the registrations (Section 5.1: "Both DAFS and the NFS hybrid clients
avoid registering application buffers with the NIC on each I/O by caching
registrations"); the server writes data with a GM put, then replies.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ...hw.host import Host
from ...hw.memory import Buffer
from ...hw.tpt import Segment
from ...sim import Span
from ..server.server import NFS_PORT
from .nfs_direct import NFSDirectClient


class RegistrationCache:
    """Caches buffer registrations so repeat I/O on a buffer is free."""

    def __init__(self, host: Host):
        self.host = host
        self._segments: Dict[int, Segment] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, buffer: Buffer) -> Generator:
        seg = self._segments.get(buffer.base)
        if seg is not None:
            self.hits += 1
            return seg
        self.misses += 1
        host_p = self.host.params.host
        yield from self.host.cpu.execute(
            buffer.page_count * host_p.register_page_us, category="register")
        seg = self.host.nic.tpt.register(buffer, pin=True)
        self._segments[buffer.base] = seg
        return seg


class NFSHybridClient(NFSDirectClient):
    """Kernel NFS client whose reads arrive by server-initiated RDMA."""

    def __init__(self, host: Host, server: str, port: int = NFS_PORT,
                 cache_registrations: bool = True):
        """``cache_registrations=False`` registers and deregisters the
        user buffer on every I/O — the on-the-fly penalty of Section 3,
        measured by the registration-cache ablation."""
        super().__init__(host, server, port)
        self.cache_registrations = cache_registrations
        self.registrations = RegistrationCache(host)

    def _transfer(self, name: str, offset: int, nbytes: int,
                  app_buffer: Buffer, span: Optional[Span]) -> Generator:
        host_p = self.host.params.host
        if self.cache_registrations:
            seg = yield from self.registrations.lookup(app_buffer)
        else:
            yield from self.cpu.execute(
                app_buffer.page_count * host_p.register_page_us,
                category="register")
            seg = self.host.nic.tpt.register(app_buffer, pin=True)
        # Advertise the buffer in the RPC; the server RDMA-writes into it
        # and the RPC response then signals I/O completion (Fig. 2).
        yield from self._call(
            "read", {"name": name, "offset": offset, "nbytes": nbytes,
                     "mode": "direct", "client_addr": seg.base,
                     "client_cap": seg.capability}, span=span)
        if not self.cache_registrations:
            self.host.nic.tpt.deregister(seg)
            yield from self.cpu.execute(
                app_buffer.page_count * host_p.deregister_page_us,
                category="register")
