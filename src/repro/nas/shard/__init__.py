"""Sharded multi-server NAS: striping, client-side routing, failover.

The paper's Fig. 7 shows the *single server* is what saturates once
ORDMA removes its CPU from the data path; this package is the scale-out
continuation. Files are striped over N servers by a seeded placement
policy (:mod:`placement`), and each client routes block reads itself
through one transport per server (:mod:`router` — the Storm-style
client-driven dataplane that composes with client-initiated ORDMA).
:class:`repro.cluster.Cluster` wires ``params.shard.n_servers`` full
servers — own disk, file cache, scheduler — behind the existing switch.
"""

from .placement import (HashPlacement, Placement, StripePlacement,
                        make_placement)
from .router import ShardDownError, ShardRouter

__all__ = [
    "HashPlacement", "Placement", "StripePlacement", "make_placement",
    "ShardDownError", "ShardRouter",
]


def __getattr__(name: str):
    # ``ShardedCluster`` is a deprecated alias of ``repro.cluster.Cluster``,
    # kept only because the benchmark harness (``perfbench/``) still
    # imports it from here. ``repro.cluster`` imports this package, so an
    # eager import of the alias would be a cycle: resolve it on first use.
    if name == "ShardedCluster":
        from ...cluster import Cluster
        return Cluster
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
