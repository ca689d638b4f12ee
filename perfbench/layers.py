"""The traced pass: one pass run under a profiler per phase, folded into
self-time by layer and exact call counts.

Layers are the simulator's packages. A built-in function (``len``,
``heappush``, ...) has no file of its own, so its self-time is charged to
the layers of the functions that called it, edge by edge.
"""

from __future__ import annotations

import cProfile
import time
from typing import Any, Dict, List, Tuple

from repro.hw.memory import Page
from repro.sim import BusyTracker

from workloads import PHASES, Phases, PassResult, run_pass

LAYERS = ("sim", "hw", "net", "proto", "nas.client", "nas.server",
          "nas.shard", "cache", "fs", "workloads", "cluster", "other")

#: Path under ``repro/`` -> layer; the first matching prefix wins.
_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("cluster.py", "cluster"),
    ("nas/shard/cluster.py", "cluster"),
    ("nas/shard/", "nas.shard"),
    ("nas/client/", "nas.client"),
    ("nas/server/", "nas.server"),
    ("nas/delegation.py", "nas.server"),
    ("nas/locks.py", "nas.server"),
    ("sim/", "sim"),
    ("hw/", "hw"),
    ("net/", "net"),
    ("proto/", "proto"),
    ("cache/", "cache"),
    ("fs/", "fs"),
    ("workloads/", "workloads"),
)

#: Exact call counts taken from the profile: every object built and
#: every CPU charge is one call of these functions' code.
COUNTED = {
    "pages_built": Page.__init__.__code__,
    "cpu_charges": BusyTracker.add.__code__,
}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside the model)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    if marker not in path:
        return "other"
    rel = path.rsplit(marker, 1)[1]
    for prefix, layer in _PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


def fold(profile: cProfile.Profile) -> Tuple[Dict[str, float],
                                             Dict[str, int]]:
    """Self-time per layer (s) and the :data:`COUNTED` call counts."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(COUNTED, 0)
    builtin_total = 0.0
    builtin_charged = 0.0
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a built-in: charged to its callers
            builtin_total += entry.inlinetime
            continue
        layer = layer_of(code.co_filename)
        self_s[layer] += entry.inlinetime
        for key, counted in COUNTED.items():
            if code is counted:
                counts[key] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                self_s[layer] += sub.inlinetime
                builtin_charged += sub.inlinetime
    # Built-ins called from outside any profiled frame.
    self_s["other"] += max(0.0, builtin_total - builtin_charged)
    return self_s, counts


def traced_pass(workload: str, seed: int, size: str
                ) -> Tuple[PassResult, Dict[str, Any]]:
    """Run one pass with a profiler switched on inside each phase span.

    Returns the pass and its trace: spans (seconds from the pass start),
    self-time by layer per phase, and the exact counts (``pages_built``
    during set-up only, ``cpu_charges`` over the whole pass).
    """
    profiles = {phase: cProfile.Profile() for phase in PHASES}
    phases = Phases({phase: (p.enable, p.disable)
                     for phase, p in profiles.items()})
    t0 = time.perf_counter()
    result = run_pass(workload, seed, size, phases)
    by_phase: Dict[str, Dict[str, float]] = {}
    counts = dict.fromkeys(COUNTED, 0)
    for phase, profile in profiles.items():
        by_phase[phase], phase_counts = fold(profile)
        for key, value in phase_counts.items():
            if key != "pages_built" or phase in ("build", "files"):
                counts[key] += value
    self_s = {layer: sum(p[layer] for p in by_phase.values())
              for layer in LAYERS}
    spans: List[Dict[str, Any]] = [
        {"name": s["phase"], "cell": s["cell"], "parent": "point",
         "start_s": s["start_s"] - t0, "end_s": s["end_s"] - t0}
        for s in result.phases.spans]
    spans.insert(0, {"name": "point", "cell": workload, "parent": None,
                     "start_s": 0.0, "end_s": result.point_s})
    trace = {"workload": workload, "seed": seed, "size": size,
             "point_s": result.point_s, "self_s": self_s,
             "self_s_by_phase": by_phase, "counts": counts,
             "model_counts": result.counts, "ops": result.ops,
             "digest": result.digest, "spans": spans}
    return result, trace
