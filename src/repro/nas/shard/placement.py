"""Placement policies: which server owns which block of which file.

Both policies place whole *stripe units* (``stripe_blocks`` contiguous
blocks) and derive every decision from ``sha256`` of the master seed —
the same derivation discipline as :class:`repro.sim.RandomStreams`, so a
placement is a pure function of ``(seed, shard params)`` that survives
interpreter restarts and ``PYTHONHASHSEED`` salting (byte-identical
campaign JSON depends on this).

* :class:`StripePlacement` — static round-robin striping from a seeded
  per-file base offset. The base spreads file homes over the servers so
  a many-small-files workload (PostMark) does not hammer shard 0.
* :class:`HashPlacement` — consistent hashing of ``(file, stripe unit)``
  over a virtual-node ring, so growing the server set relocates only
  ~1/N of the blocks (the property that matters for online reshard).

Replica chains put copy ``i`` on the ``i``-th next *distinct* server
after the primary (ring successors for the hash policy).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Optional, Tuple

from ...params import ShardParams


def _h63(text: str) -> int:
    """Stable 63-bit hash (sha256-derived, like RandomStreams seeds)."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Placement:
    """Base policy: maps (file, block) to a primary and its replicas."""

    def __init__(self, n_servers: int, stripe_blocks: int, replicas: int,
                 seed: int):
        if n_servers < 1:
            raise ValueError(f"need at least one server: {n_servers}")
        if stripe_blocks < 1:
            raise ValueError(f"bad stripe unit: {stripe_blocks}")
        if not 0 <= replicas < n_servers:
            raise ValueError(f"{replicas} replica(s) impossible with "
                             f"{n_servers} server(s)")
        self.n_servers = n_servers
        self.stripe_blocks = stripe_blocks
        self.replicas = replicas
        self.seed = seed

    def _unit(self, block_index: int) -> int:
        return block_index // self.stripe_blocks

    def shard_of(self, name: str, block_index: int) -> int:
        """The primary server for one block."""
        raise NotImplementedError

    def home_of(self, name: str) -> int:
        """The server holding a file's namespace state (opens, locks,
        delegations): the primary of its first block."""
        return self.shard_of(name, 0)

    def replica_chain(self, name: str, block_index: int) -> Tuple[int, ...]:
        """Primary followed by its replica servers, in failover order."""
        primary = self.shard_of(name, block_index)
        chain = [primary]
        step = 1
        while len(chain) <= self.replicas:
            chain.append((primary + step) % self.n_servers)
            step += 1
        return tuple(chain)


class StripePlacement(Placement):
    """Static block striping from a seeded per-file base offset."""

    def _base(self, name: str) -> int:
        return _h63(f"{self.seed}:stripe:{name}") % self.n_servers

    def shard_of(self, name: str, block_index: int) -> int:
        return (self._base(name) + self._unit(block_index)) % self.n_servers


class HashPlacement(Placement):
    """Seeded consistent hashing over a virtual-node ring."""

    def __init__(self, n_servers: int, stripe_blocks: int, replicas: int,
                 seed: int, vnodes: int = 64):
        super().__init__(n_servers, stripe_blocks, replicas, seed)
        if vnodes < 1:
            raise ValueError(f"bad vnode count: {vnodes}")
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for server in range(n_servers):
            for v in range(vnodes):
                points.append((_h63(f"{seed}:ring:{server}:{v}"), server))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def _successor(self, key_hash: int) -> int:
        """Index into the ring of the first point at or after the hash."""
        i = bisect.bisect_left(self._points, key_hash)
        return i % len(self._points)

    def shard_of(self, name: str, block_index: int) -> int:
        h = _h63(f"{self.seed}:key:{name}:{self._unit(block_index)}")
        return self._owners[self._successor(h)]

    def replica_chain(self, name: str, block_index: int) -> Tuple[int, ...]:
        """Ring successors: walk clockwise collecting distinct servers."""
        h = _h63(f"{self.seed}:key:{name}:{self._unit(block_index)}")
        i = self._successor(h)
        chain: List[int] = []
        for step in range(len(self._points)):
            server = self._owners[(i + step) % len(self._points)]
            if server not in chain:
                chain.append(server)
                if len(chain) > self.replicas:
                    break
        return tuple(chain)


def shard_config_error(shard: ShardParams, seed: int = 0) -> Optional[str]:
    """A human-readable reason ``shard`` cannot be wired, or ``None``.

    CLI entry points call this *before* building a multi-server
    :class:`~repro.cluster.Cluster`, so a bad
    combination (``replicas >= n_servers``, zero stripe unit, unknown
    placement, ...) surfaces as one clear message and a nonzero exit
    instead of a traceback from deep inside cluster wiring.
    """
    try:
        make_placement(shard, seed)
    except ValueError as exc:
        return str(exc)
    return None


def make_placement(shard: ShardParams, seed: int) -> Placement:
    """Build the policy :class:`~repro.params.ShardParams` selects."""
    if shard.placement == "stripe":
        return StripePlacement(shard.n_servers, shard.stripe_blocks,
                               shard.replicas, seed)
    if shard.placement == "hash":
        return HashPlacement(shard.n_servers, shard.stripe_blocks,
                             shard.replicas, seed, vnodes=shard.hash_vnodes)
    raise ValueError(f"unknown placement {shard.placement!r}; "
                     f"one of ('stripe', 'hash')")
