"""Common NAS client machinery: handles, delegations, RPC plumbing.

Each concrete client implements the same file API (open / read / write /
close / getattr) over a different data path; workloads and benchmarks are
written once against this interface.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ...fs.files import block_payload
from ...hw.host import Host
from ...hw.memory import Buffer
from ...net.packet import Message
from ...proto.rpc import RPC_HEADER_BYTES, RPCClient
from ...sim import Counter, Span
from ..delegation import READ


class FileHandle:
    """Client-side open file state."""

    __slots__ = ("name", "size", "mtime", "delegated", "opens", "mode")

    def __init__(self, name: str, size: int, mtime: float,
                 delegated: bool, mode: str):
        self.name = name
        self.size = size
        self.mtime = mtime
        self.delegated = delegated
        self.mode = mode
        self.opens = 1


class NASClient:
    """Abstract base: RPC session + delegation handling."""

    #: Kernel-resident clients charge syscalls and the kernel RPC layer's
    #: extra per-call cost; the user-level DAFS client does not (Section 1:
    #: the kernel structure is less portable but the user-level structure
    #: needs no kernel support).
    kernel = True

    def __init__(self, host: Host, transport, server: str):
        self.host = host
        self.server = server
        self.rpc = RPCClient(host, transport, server, kernel=self.kernel)
        self.stats = Counter()
        self._handles: Dict[str, FileHandle] = {}

    # -- small helpers -----------------------------------------------------

    @property
    def sim(self):
        return self.host.sim

    @property
    def cpu(self):
        return self.host.cpu

    @property
    def proto(self):
        return self.host.params.proto

    def _syscall(self) -> Generator:
        if self.kernel:
            yield from self.cpu.syscall()

    def _start_span(self, op: str, **detail) -> Optional[Span]:
        """Open a request span when a tracer is attached, else ``None``."""
        tracer = self.sim.tracer
        if tracer is None:
            return None
        return tracer.start_span(self.host.name, op, **detail)

    def _count_io(self, ops: str, bytes_key: str, nbytes: int,
                  span: Optional[Span]) -> None:
        """The one accounting point of every read and write: count the
        operation under ``ops`` and its bytes under ``bytes_key``, then
        close its span."""
        self.stats.incr(ops)
        self.stats.incr(bytes_key, nbytes)
        if span is not None:
            span.finish(self.host.name)

    def _call(self, proc: str, args: Optional[Dict[str, Any]] = None,
              req_bytes: int = RPC_HEADER_BYTES,
              rddp_buffer: Optional[Buffer] = None,
              rddp_untagged: bool = False,
              span: Optional[Span] = None) -> Generator:
        response: Message = yield from self.rpc.call(
            proc, args, req_bytes=req_bytes, rddp_buffer=rddp_buffer,
            rddp_untagged=rddp_untagged, span=span)
        for name in response.meta.get("recall", ()):  # piggybacked recalls
            handle = self._handles.get(name)
            if handle is not None:
                handle.delegated = False
                self.stats.incr("delegations_recalled")
        return response

    # -- namespace operations ----------------------------------------------

    def open(self, name: str, mode: str = READ) -> Generator:
        """Open a file; repeat opens under a delegation are local."""
        handle = self._handles.get(name)
        if handle is not None and handle.delegated and handle.mode == mode:
            yield from self.cpu.execute(self.proto.delegated_open_us,
                                        category="open")
            handle.opens += 1
            self.stats.incr("local_opens")
            return handle
        yield from self._syscall()
        span = self._start_span("open", name=name)
        response = yield from self._call("open", {"name": name,
                                                  "mode": mode}, span=span)
        handle = FileHandle(name, response.meta["size"],
                            response.meta["mtime"],
                            response.meta.get("delegation", False), mode)
        self._handles[name] = handle
        self.stats.incr("remote_opens")
        if span is not None:
            span.finish(self.host.name)
        return handle

    def close(self, name: str) -> Generator:
        """Close; local under a delegation, otherwise an RPC."""
        handle = self._handles.get(name)
        if handle is None:
            raise KeyError(f"close of unopened file {name!r}")
        handle.opens -= 1
        if handle.delegated:
            yield from self.cpu.execute(self.proto.delegated_open_us,
                                        category="open")
            self.stats.incr("local_closes")
            return
        yield from self._syscall()
        yield from self._call("close", {"name": name})
        if handle.opens <= 0:
            del self._handles[name]
        self.stats.incr("remote_closes")

    def getattr(self, name: str) -> Generator:
        """Fetch a file's attributes (size, mtime) via RPC."""
        yield from self._syscall()
        response = yield from self._call("getattr", {"name": name})
        return {"size": response.meta["size"],
                "mtime": response.meta["mtime"]}

    def create(self, name: str, size: int) -> Generator:
        """Create a file of ``size`` bytes on the server."""
        yield from self._syscall()
        yield from self._call("create", {"name": name, "size": size})

    def remove(self, name: str) -> Generator:
        """Remove a file from the server namespace."""
        yield from self._syscall()
        yield from self._call("remove", {"name": name})

    # -- data operations (concrete clients implement) ---------------------

    def read(self, name: str, offset: int, nbytes: int,
             app_buffer: Optional[Buffer] = None) -> Generator:
        """Read ``nbytes`` at ``offset``; returns the payload object.

        An empty range touches no block, so in every system it costs
        nothing: no RPC, no CPU time, no count and no buffer, and the
        payload is the empty block list. Any other range takes the
        system's :meth:`_read`.
        """
        if not nbytes:
            return block_payload([])
        return (yield from self._read(name, offset, nbytes, app_buffer))

    def _read(self, name: str, offset: int, nbytes: int,
              app_buffer: Optional[Buffer]) -> Generator:
        """The system's read of a non-empty range."""
        raise NotImplementedError

    def write(self, name: str, offset: int, nbytes: int) -> Generator:
        """Write ``nbytes`` at ``offset`` from an application buffer.

        The plain path: one RPC carrying the payload inline, sent by
        scatter/gather DMA straight from the user buffer with no staging
        copy. Clients that copy, register or cache override it.
        """
        span = self._start_span("write", name=name, offset=offset,
                                nbytes=nbytes)
        yield from self._syscall()
        response = yield from self._call(
            "write", {"name": name, "offset": offset, "nbytes": nbytes},
            req_bytes=RPC_HEADER_BYTES + nbytes, span=span)
        self._count_io("writes", "write_bytes", nbytes, span)
        return response.meta

    def read_async(self, name: str, offset: int, nbytes: int,
                   app_buffer: Optional[Buffer] = None):
        """Issue a read as a concurrent process (aio-style read-ahead)."""
        return self.sim.process(
            self.read(name, offset, nbytes, app_buffer),
            name=f"{self.host.name}.aio")
