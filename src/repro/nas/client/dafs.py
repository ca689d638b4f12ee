"""DAFS client: user-level library over VI with polling completion.

Two data paths, as on the testbed:

* **direct reads** into registered application buffers (the Fig. 3/4/5
  streaming and Berkeley DB experiments) — server-initiated RDMA write,
  registration-cached, no syscalls, polling;
* **cached reads** through the user-level client file cache of
  [Addetia TR-14-01] (the Section 5.2 experiments interpose this cache
  between application and DAFS API). Misses fill whole cache blocks from
  the server; a multi-block request fans its misses out concurrently
  (the cache's internal read-ahead "up to the size of the application
  request" — Section 5.2).

Batch I/O (Section 2.2) is supported: one RPC requests a set of
server-issued RDMA transfers, amortizing the client's per-I/O RPC cost.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from ...cache.block_cache import CacheBlock, ClientFileCache
from ...fs.files import block_payload, block_range
from ...hw.host import Host
from ...hw.memory import Buffer
from ...hw.nic import NotifyMode
from ...params import KB
from ..server.server import DAFS_PORT
from ...proto.vi import VIEndpoint
from .base import NASClient
from .nfs_hybrid import RegistrationCache


class DAFSClient(NASClient):
    """User-level DAFS client."""

    kernel = False

    def __init__(self, host: Host, server: str, port: int = DAFS_PORT,
                 cache_blocks: int = 0, cache_block_size: int = 4 * KB,
                 rpc_read_mode: str = "direct"):
        endpoint = VIEndpoint(host, port, mode=NotifyMode.POLL)
        super().__init__(host, endpoint, server)
        self.registrations = RegistrationCache(host)
        self.rpc_read_mode = rpc_read_mode
        self.cache: Optional[ClientFileCache] = None
        self.cache_block_size = cache_block_size
        if cache_blocks > 0:
            self.cache = ClientFileCache(host, cache_block_size,
                                         cache_blocks,
                                         name=f"{host.name}.fcache")

    # -- direct path ---------------------------------------------------------

    def _read_direct(self, name: str, offset: int, nbytes: int,
                     app_buffer: Optional[Buffer]) -> Generator:
        """Read straight into a registered application buffer."""
        span = self._start_span("read", name=name, offset=offset,
                                nbytes=nbytes)
        if span is not None and self.rpc_read_mode == "direct":
            span.path = "rdma"
        if app_buffer is None:
            app_buffer = self.host.mem.alloc(nbytes, name="dafs-anon")
        if app_buffer.size < nbytes:
            raise ValueError(
                f"application buffer too small: {app_buffer.size} < {nbytes}")
        args = {"name": name, "offset": offset, "nbytes": nbytes,
                "mode": self.rpc_read_mode}
        if self.rpc_read_mode == "direct":
            seg = yield from self.registrations.lookup(app_buffer)
            args["client_addr"] = seg.base
        response = yield from self._call("read", args, span=span)
        if self.rpc_read_mode != "direct":
            # In-line payload: copy from the communication buffer to the
            # destination (Section 5.2's 'RPC in-line read' client copy).
            yield from self.cpu.copy(nbytes, cached=False)
            if span is not None:
                span.mark(self.host.name, "client.copy", bytes=nbytes)
            app_buffer.data = response.data
        self._count_io("reads", "read_bytes", nbytes, span)
        return app_buffer.data

    # -- cached path ----------------------------------------------------------

    def _fill_block(self, name: str, index: int, block: CacheBlock,
                    span=None) -> Generator:
        """Fetch one cache block from the server into its frame."""
        yield from self._remote_fill_rpc(name, index, block, span=span)

    def _remote_fill_rpc(self, name: str, index: int, block: CacheBlock,
                         span=None) -> Generator:
        bs = self.cache_block_size
        if span is not None and span.path == "rpc" \
                and self.rpc_read_mode == "direct":
            span.path = "rdma"
        args = {"name": name, "offset": index * bs, "nbytes": bs,
                "mode": self.rpc_read_mode}
        if self.rpc_read_mode == "direct":
            # Cache frames are registered at mount: no per-I/O cost here.
            args["client_addr"] = block.buffer.base
        response = yield from self._call("read", args, span=span)
        if self.rpc_read_mode == "direct":
            data = block.buffer.data
        else:
            yield from self.cpu.copy(bs, cached=False)
            data = response.data
        self.cache.fill(block, data)
        response.meta["refs_name"] = name
        self._absorb_refs(response)
        self.stats.incr("rpc_fills")
        return data

    def _absorb_refs(self, response) -> None:
        """ODAFS hook: harvest piggybacked references (no-op for DAFS)."""

    def _read(self, name: str, offset: int, nbytes: int,
              app_buffer: Optional[Buffer]) -> Generator:
        """Read via the client cache if configured, else directly."""
        if self.cache is None:
            data = yield from self._read_direct(name, offset, nbytes,
                                                app_buffer)
            return data
        span = self._start_span("read", name=name, offset=offset,
                                nbytes=nbytes)
        datas: List[Any] = []
        fills: List[Tuple[int, CacheBlock]] = []
        for index in block_range(offset, nbytes, self.cache_block_size):
            yield from self.cpu.execute(self.proto.client_cache_op_us,
                                        category="cache")
            key = (name, index)
            block = self.cache.probe(key)
            if block is not None and block.data is not None:
                datas.append(block.data)
                self.stats.incr("cache_hits")
                continue
            block = self.cache.claim(key)
            fills.append((index, block))
            datas.append(block)  # placeholder, resolved after the fill
            self.stats.incr("cache_misses")
        if span is not None:
            span.mark(self.host.name, "client.cache",
                      hits=len(datas) - len(fills), misses=len(fills))
            if not fills:
                span.path = "local"
        if fills:
            # Internal read-ahead: fan out all misses concurrently.
            procs = [self.sim.process(self._fill_block(name, i, b,
                                                       span=span),
                                      name=f"{self.host.name}.fill")
                     for i, b in fills]
            yield self.sim.all_of(procs)
        payload = block_payload(
            [d.data if isinstance(d, CacheBlock) else d for d in datas])
        if app_buffer is not None:
            app_buffer.data = payload
        self._count_io("reads", "read_bytes", nbytes, span)
        return payload

    # -- writes ---------------------------------------------------------------

    def write(self, name: str, offset: int, nbytes: int) -> Generator:
        """Write through to the server (inline payload RPC); invalidates
        the affected client-cache blocks."""
        from ...proto.rpc import RPC_HEADER_BYTES
        span = self._start_span("write", name=name, offset=offset,
                                nbytes=nbytes)
        response = yield from self._call(
            "write", {"name": name, "offset": offset, "nbytes": nbytes},
            req_bytes=RPC_HEADER_BYTES + nbytes, span=span)
        if self.cache is not None:
            for index in block_range(offset, nbytes, self.cache_block_size):
                self.cache.invalidate((name, index))
        response.meta["refs_name"] = name
        self._absorb_refs(response)
        self._count_io("writes", "write_bytes", nbytes, span)
        return response.meta

    # -- batch I/O (Section 2.2) ----------------------------------------------

    def read_batch(self, name: str,
                   extents: List[Tuple[int, int, Buffer]]) -> Generator:
        """One RPC, many server-issued RDMA transfers.

        ``extents`` is a list of (offset, nbytes, target buffer); a single
        RPC asks the server to RDMA-write each extent, amortizing the
        client's per-I/O RPC cost across the set.
        """
        span = self._start_span("read_batch", name=name,
                                extents=len(extents))
        if span is not None:
            span.path = "rdma"
        batch = []
        for offset, nbytes, buffer in extents:
            seg = yield from self.registrations.lookup(buffer)
            batch.append({"offset": offset, "nbytes": nbytes,
                          "client_addr": seg.base})
        yield from self._call("read_batch", {"name": name,
                                             "extents": batch}, span=span)
        self._count_io("batch_reads", "read_bytes",
                       sum(e[1] for e in extents), span)
        return [e[2].data for e in extents]
