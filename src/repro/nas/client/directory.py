"""ORDMA reference directory.

ODAFS clients cache remote memory references piggybacked by the server
(Section 4.2, principle (a)). The directory is deliberately cheap to keep
— references live in "empty" block headers, so it can be much larger than
the data cache, ideally mapping the server's whole file cache
(Section 4.2.1). Entries are never eagerly invalidated; a stale reference
simply faults at the server NIC and is dropped then (principle (b)).

Replacement is pluggable: LRU (the paper's choice) or Multi-Queue (its
suggested improvement, since the directory sees a cache-miss-filtered
stream).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ...cache.lru import LRUPolicy
from ...cache.mq import MQPolicy
from ...cache.policy import ReplacementPolicy
from ...proto.ordma import RemoteRef
from ...sim import Counter


def make_policy(kind: str, capacity: int) -> ReplacementPolicy:
    """Build a directory replacement policy by name ("lru" or "mq")."""
    if kind == "lru":
        return LRUPolicy(capacity)
    if kind == "mq":
        return MQPolicy(capacity)
    raise ValueError(f"unknown directory policy {kind!r}")


class ORDMADirectory:
    """Bounded map of block keys to remote references."""

    def __init__(self, capacity: int, policy: str = "lru"):
        self.capacity = capacity
        self.policy_name = policy
        self._policy = make_policy(policy, capacity)
        self._refs: Dict[Hashable, RemoteRef] = {}
        self.stats = Counter()

    def __len__(self) -> int:
        return len(self._refs)

    def probe(self, key: Hashable) -> Optional[RemoteRef]:
        ref = self._refs.get(key)
        if ref is None:
            self.stats.incr("misses")
            return None
        self._policy.touch(key)
        self.stats.incr("hits")
        return ref

    def insert(self, key: Hashable, ref: RemoteRef) -> None:
        victim = self._policy.admit(key)
        if victim is not None:
            self._refs.pop(victim, None)
            self.stats.incr("evictions")
        self._refs[key] = ref

    def invalidate(self, key: Hashable) -> bool:
        """Drop a reference that faulted at the server."""
        if key not in self._refs:
            return False
        self._policy.remove(key)
        del self._refs[key]
        self.stats.incr("invalidations")
        return True

    def hit_ratio(self) -> float:
        return self.stats.hit_ratio()

    def gauges(self):
        """Telemetry probes for a :class:`~repro.sim.TimeSeriesSampler`:
        resident reference count and cumulative invalidations (lazy drops
        after server-NIC faults)."""
        return {
            "size": lambda: float(len(self._refs)),
            "invalidations": lambda: float(
                self.stats.get("invalidations")),
        }
