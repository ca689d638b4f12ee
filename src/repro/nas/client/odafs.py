"""Optimistic DAFS client.

Extends the DAFS client with the three ODAFS principles (Section 4.2):

(a) a directory of remote references to server cache memory, built lazily
    from references the server piggybacks on every RPC response;
(b) no eager invalidation — a stale reference faults at the server NIC
    and only then gets dropped;
(c) every ORDMA is issued prepared to catch the recoverable exception and
    retry through RPC, whose response refreshes the reference.

Cache-block fills therefore try: client cache (handled by the base class)
-> ORDMA read of the server's cache block -> RPC.
"""

from __future__ import annotations

from typing import Generator

from ...cache.block_cache import CacheBlock
from ...hw.host import Host
from ...hw.tpt import RemoteAccessFault
from ...integrity.checksum import block_checksum
from ...params import KB
from ...proto.ordma import ORDMAInitiator
from ..server.server import DAFS_PORT
from .dafs import DAFSClient


class ODAFSClient(DAFSClient):
    """DAFS client with client-initiated Optimistic RDMA."""

    def __init__(self, host: Host, server: str, port: int = DAFS_PORT,
                 cache_blocks: int = 64, cache_block_size: int = 4 * KB,
                 directory_capacity: int = 1 << 20,
                 directory_policy: str = "lru",
                 rpc_read_mode: str = "direct"):
        super().__init__(host, server, port=port,
                         cache_blocks=cache_blocks,
                         cache_block_size=cache_block_size,
                         rpc_read_mode=rpc_read_mode)
        if self.cache is None:
            raise ValueError("ODAFS client requires a client file cache")
        # Imported here to avoid a cycle at package import time.
        from .directory import ORDMADirectory
        self.directory = ORDMADirectory(directory_capacity,
                                        policy=directory_policy)
        self.ordma = ORDMAInitiator(host)

    # -- reference harvesting ------------------------------------------------

    def _absorb_refs(self, response) -> None:
        """Store piggybacked (block index, ref) pairs in the directory."""
        refs = response.meta.get("refs")
        if not refs:
            return
        name = response.meta.get("refs_name")
        for index, ref in refs:
            self.directory.insert((name, index), ref)
        self.stats.incr("refs_absorbed", len(refs))

    def prefetch_refs(self, name: str) -> Generator:
        """Eager directory building (Section 4.2 principle (a)): fetch
        remote references for every cached block of ``name`` in one RPC.
        Returns the number of references learned."""
        response = yield from self._call("get_refs", {"name": name})
        refs = response.meta.get("refs", ())
        yield from self.cpu.execute(
            self.proto.ordma_dir_op_us * max(1, len(refs)) * 0.1,
            category="directory")
        self._absorb_refs(response)
        self.stats.incr("eager_ref_fetches")
        return len(refs)

    # -- the optimistic fill path ------------------------------------------------

    def _note_ordma_fault(self, key, span) -> None:
        """The single accounting point for a recoverable ORDMA fault:
        drops the stale reference (principle (b)) and keeps the fault
        counter and the tracer's span marks in lockstep."""
        self.directory.invalidate(key)
        self.stats.incr("ordma_faults")
        if span is not None:
            span.path = "ordma-fallback"
            span.mark(self.host.name, "ordma.fault")

    def _fill_block(self, name: str, index: int, block: CacheBlock,
                    span=None) -> Generator:
        key = (name, index)
        yield from self.cpu.execute(self.proto.ordma_dir_op_us,
                                    category="directory")
        ref = self.directory.probe(key)
        if span is not None:
            span.mark(self.host.name, "ordma.directory",
                      hit=ref is not None)
        if ref is not None:
            try:
                data = yield from self.ordma.read(ref, local=block.buffer,
                                                  span=span)
            except RemoteAccessFault:
                # Stale reference: drop it and guarantee success via RPC,
                # whose response carries a fresh reference (Section 4.2.1).
                self._note_ordma_fault(key, span)
            else:
                if ref.csum is not None:
                    # The server CPU never saw this transfer, so the
                    # *client* is the first place the bytes can be vetted:
                    # verify against the checksum piggybacked on the
                    # reference. A mismatch is handled exactly like a
                    # remote-access fault — drop the reference and fall
                    # back to RPC, where the server re-reads and verifies.
                    ip = self.host.params.integrity
                    yield from self.cpu.execute(
                        ip.checksum_op_us
                        + self.cache_block_size / ip.checksum_bw,
                        category="integrity")
                    if block_checksum(data) != ref.csum:
                        self.stats.incr("integrity_detected")
                        if span is not None:
                            span.mark(self.host.name, "integrity.detect",
                                      block=f"{name}#{index}")
                        self._note_ordma_fault(key, span)
                        yield from self._remote_fill_rpc(name, index, block,
                                                         span=span)
                        return
                self.cache.fill(block, data)
                yield from self.cpu.execute(self.proto.ordma_dir_op_us,
                                            category="directory")
                self.stats.incr("ordma_reads")
                if span is not None:
                    span.path = "ordma"
                return
        yield from self._remote_fill_rpc(name, index, block, span=span)
