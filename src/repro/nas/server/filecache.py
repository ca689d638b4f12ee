"""Server kernel file cache with optional memory export for ORDMA.

The ODAFS server maps cached file blocks into a private 64-bit virtual
address map that only the NIC addresses (Section 4.2.1), registers them in
the TPT *unpinned* (so the VM system may still reclaim the pages — that is
what makes client access optimistic), and hands out capabilities as remote
references. Evicting a block revokes its TPT entry; a client that still
holds the stale reference gets a recoverable fault on its next ORDMA.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...cache.lru import LRUPolicy
from ...fs.files import BlockContent
from ...hw.host import Host
from ...hw.memory import Buffer, AddressSpace
from ...hw.tpt import Segment
from ...proto.ordma import RemoteRef
from ...sim import Counter, ratio_probe

BlockKey = Tuple[str, int]


class ServerBlock:
    """One cached file block, optionally exported."""

    __slots__ = ("key", "buffer", "segment", "data")

    def __init__(self, key: BlockKey, buffer: Buffer, data: BlockContent,
                 segment: Optional[Segment]):
        self.key = key
        self.buffer = buffer
        self.data = data
        self.segment = segment


class ServerFileCache:
    """LRU cache of file blocks in server memory."""

    def __init__(self, host: Host, block_size: int, capacity_blocks: int,
                 export: bool = False, preload_tlb: bool = True):
        """``preload_tlb`` loads exported blocks' translations into the NIC
        TLB at insert time, reproducing the paper's setup where RDMA
        "always hits in the NIC TLB" (Section 5.2). The NIC-TLB ablation
        turns this off to expose miss costs."""
        if capacity_blocks < 1:
            raise ValueError(f"capacity must be >= 1: {capacity_blocks}")
        self.host = host
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self.export = export
        self.preload_tlb = preload_tlb
        self.stats = Counter()
        #: Optional :class:`repro.integrity.ChecksumStore`, installed by
        #: the owning server when ``params.integrity.enabled``; when set,
        #: exported references carry the block's expected checksum.
        self.checksums = None
        self._policy = LRUPolicy(capacity_blocks)
        self._blocks: Dict[BlockKey, ServerBlock] = {}
        #: Private 64-bit export map, addressed only by the NIC
        #: (Section 4.2.1); plain file caching uses host memory directly.
        self._space = (AddressSpace(name=f"{host.name}.export",
                                    base=0x8000_0000_0000)
                       if export else host.mem)

    def __len__(self) -> int:
        return len(self._blocks)

    def peek(self, key: BlockKey) -> Optional[ServerBlock]:
        """Inspect a resident block without touching LRU order or the
        hit/miss counters — the scrubber audits the cache through this."""
        return self._blocks.get(key)

    def keys(self):
        """Resident block keys in insertion order (scrubber walk order)."""
        return list(self._blocks)

    def lookup(self, key: BlockKey) -> Optional[ServerBlock]:
        block = self._blocks.get(key)
        if block is None:
            self.stats.incr("misses")
            return None
        self._policy.touch(key)
        self.stats.incr("hits")
        return block

    def insert(self, key: BlockKey, data: BlockContent) -> ServerBlock:
        existing = self._blocks.get(key)
        if existing is not None:
            existing.data = data
            existing.buffer.data = data
            self._policy.touch(key)
            return existing
        victim_key = self._policy.admit(key)
        if victim_key is not None:
            self._drop(victim_key)
        buffer = self._space.alloc(self.block_size,
                                   name=f"{key[0]}#{key[1]}")
        buffer.data = data
        segment = None
        if self.export:
            segment = self.host.nic.tpt.register(buffer, pin=False)
            self.stats.incr("exports")
            if self.preload_tlb:
                for page in buffer.pages:
                    self.host.nic.tlb.load(page)
        block = ServerBlock(key, buffer, data, segment)
        self._blocks[key] = block
        return block

    def _drop(self, key: BlockKey) -> None:
        block = self._blocks.pop(key)
        if block.segment is not None:
            # Any NIC-TLB-resident translations must be shot down before
            # the pages can go away (Section 4.1): the OS checks the TPT
            # and evicts the entries from the NIC TLB.
            for page in block.buffer.pages:
                if page.nic_loaded:
                    self.host.nic.tlb.invalidate(page)
                    self.stats.incr("tlb_shootdowns")
            self.host.nic.tpt.deregister(block.segment)
        block.buffer.space.free(block.buffer)
        self.stats.incr("evictions")

    def clear(self) -> int:
        """Drop every cached block at once — a crashed server restarts
        cold, and each export revocation leaves clients holding stale
        references that fault on next use. Returns blocks lost."""
        keys = list(self._blocks)
        for key in keys:
            self._policy.remove(key)
            self._drop(key)
        if keys:
            self.stats.incr("clears")
        return len(keys)

    def invalidate(self, key: BlockKey) -> bool:
        """Explicitly drop one block (e.g. VM pressure, write-back)."""
        if key not in self._blocks:
            return False
        self._policy.remove(key)
        self._drop(key)
        return True

    def revoke_export(self, key: BlockKey) -> bool:
        """Revoke a block's capability without evicting the data — the
        'server may revoke access privileges' path of Section 4."""
        block = self._blocks.get(key)
        if block is None or block.segment is None:
            return False
        self.host.nic.tpt.revoke(block.segment)
        self.stats.incr("revocations")
        return True

    def ref_for(self, block: ServerBlock) -> Optional[RemoteRef]:
        """The piggybackable remote reference for an exported block."""
        if block.segment is None or block.segment.revoked:
            return None
        csum = (self.checksums.expected(block.key)
                if self.checksums is not None else None)
        return RemoteRef(self.host.name, block.segment.base,
                         block.segment.length,
                         capability=block.segment.capability,
                         csum=csum)

    def gauges(self):
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`:
        resident block count and hit rate over the sampling window (not
        the cumulative ``stats.hit_ratio()``)."""
        stats = self.stats
        return {
            "blocks": lambda: float(len(self._blocks)),
            "hit_rate": ratio_probe(
                lambda: float(stats.get("hits")),
                lambda: float(stats.get("hits") + stats.get("misses"))),
        }
