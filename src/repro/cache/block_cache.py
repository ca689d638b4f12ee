"""Client file cache: bounded data blocks over registered buffers.

The DAFS/ODAFS client cache (Section 4.2.1, [Addetia TR-14-01]) holds a
fixed pool of cache-block buffers, registered with the NIC *once* at mount
(registration caching: neither DAFS nor ODAFS pays per-I/O registration).
Block *headers* are modelled by the separate ORDMA reference directory,
which may be far larger than the data cache — references live on in
"empty" headers after their data is reclaimed.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional

from ..hw.host import Host
from ..hw.memory import Buffer
from ..sim import Counter, trace_emit
from .lru import LRUPolicy
from .policy import ReplacementPolicy

#: Cache keys are (file name, block index).
BlockKey = Hashable


class CacheBlock:
    """One resident data block bound to a pooled, registered buffer."""

    __slots__ = ("key", "buffer", "data")

    def __init__(self, key: BlockKey, buffer: Buffer, data: Any):
        self.key = key
        self.buffer = buffer
        self.data = data


class ClientFileCache:
    """Fixed-capacity block cache with pluggable replacement."""

    def __init__(self, host: Host, block_size: int, capacity_blocks: int,
                 policy: Optional[ReplacementPolicy] = None,
                 register: bool = True, name: str = "fcache"):
        if capacity_blocks < 1:
            raise ValueError(f"capacity must be >= 1: {capacity_blocks}")
        if block_size < 1:
            raise ValueError(f"block size must be >= 1: {block_size}")
        self.host = host
        self.name = name
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self.policy = policy or LRUPolicy(capacity_blocks)
        self.stats = Counter()
        self._blocks: Dict[BlockKey, CacheBlock] = {}
        self._free: List[Buffer] = []
        for i in range(capacity_blocks):
            buf = host.mem.alloc(block_size, name=f"{name}:{i}")
            if register:
                # Registration caching: the block pool is registered with
                # the NIC once, so per-I/O RDMA needs no (de)registration.
                host.nic.tpt.register(buf, pin=True)
            self._free.append(buf)

    def __len__(self) -> int:
        return len(self._blocks)

    def probe(self, key: BlockKey) -> Optional[CacheBlock]:
        """Look up a block; refreshes recency on hit."""
        sim = self.host.sim
        block = self._blocks.get(key)
        if block is None:
            self.stats.incr("misses")
            if sim.tracer is not None:
                trace_emit(sim, f"{self.host.name}.{self.name}",
                           "cache-miss", key=str(key))
            return None
        self.policy.touch(key)
        self.stats.incr("hits")
        if sim.tracer is not None:
            trace_emit(sim, f"{self.host.name}.{self.name}",
                       "cache-hit", key=str(key))
        return block

    def claim(self, key: BlockKey) -> CacheBlock:
        """Reserve a block frame for ``key`` (evicting if needed) so an
        incoming transfer can land directly in its registered buffer."""
        existing = self._blocks.get(key)
        if existing is not None:
            self.policy.touch(key)
            return existing
        victim_key = self.policy.admit(key)
        if victim_key is not None:
            victim = self._blocks.pop(victim_key)
            victim.buffer.data = None
            self._free.append(victim.buffer)
            self.stats.incr("evictions")
            if self.host.sim.tracer is not None:
                trace_emit(self.host.sim,
                           f"{self.host.name}.{self.name}",
                           "cache-evict", key=str(victim_key),
                           for_key=str(key))
        buffer = self._free.pop()
        block = CacheBlock(key, buffer, None)
        self._blocks[key] = block
        return block

    def fill(self, block: CacheBlock, data: Any) -> None:
        """Complete a claim with the arrived data."""
        block.data = data
        if block.buffer.data is None:
            block.buffer.data = data

    def invalidate(self, key: BlockKey) -> bool:
        block = self._blocks.pop(key, None)
        if block is None:
            return False
        self.policy.remove(key)
        block.buffer.data = None
        self._free.append(block.buffer)
        self.stats.incr("invalidations")
        return True

    def hit_ratio(self) -> float:
        return self.stats.hit_ratio()
