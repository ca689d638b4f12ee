"""The read frame the three NFS direct-transfer clients share.

Pre-posting (Section 3.2), page re-mapping (Section 2.2) and the hybrid
client's server RDMA (Section 3.1) differ only in how the payload reaches
the user buffer. Everything around that transfer is this one read, so the
systems are compared on the transfer alone.
"""

from __future__ import annotations

from typing import Generator, Optional

from ...hw.host import Host
from ...hw.memory import Buffer
from ...proto.udp import UDPStack
from ...sim import Span
from ..server.server import NFS_PORT
from .base import NASClient


class NFSDirectClient(NASClient):
    """Kernel NFS client over UDP whose reads land in the user buffer
    without a client copy; subclasses supply :meth:`_transfer`."""

    def __init__(self, host: Host, server: str, port: int = NFS_PORT):
        super().__init__(host, UDPStack(host).socket(port), server)

    def _read(self, name: str, offset: int, nbytes: int,
              app_buffer: Optional[Buffer]) -> Generator:
        if app_buffer is None:
            # Direct transfer needs a target user buffer.
            app_buffer = self.host.mem.alloc(nbytes, name="nfs-direct-anon")
        if app_buffer.size < nbytes:
            raise ValueError(
                f"user buffer too small: {app_buffer.size} < {nbytes}")
        span = self._start_span("read", name=name, offset=offset,
                                nbytes=nbytes)
        if span is not None:
            span.path = "rdma"
        yield from self._syscall()
        yield from self._transfer(name, offset, nbytes, app_buffer, span)
        self._count_io("reads", "read_bytes", nbytes, span)
        return app_buffer.data

    def _transfer(self, name: str, offset: int, nbytes: int,
                  app_buffer: Buffer, span: Optional[Span]) -> Generator:
        """Fetch the range into ``app_buffer``: the system's data path."""
        raise NotImplementedError
