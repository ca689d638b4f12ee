"""Parallel campaign runner: fan sweep points across a process pool.

Every campaign in :mod:`repro.bench` — the figure sweeps, the ablation
studies, the chaos grids — is a grid of *points*, and every point is a
pure function of ``(master seed, point spec)``: each point builds a fresh
:class:`~repro.cluster.Cluster`, and every RNG the cluster touches is a
named :class:`~repro.sim.RandomStreams` stream derived from the master
seed with a stable hash. Points therefore share no mutable state and can
run in any order, on any worker, with byte-identical results.

:func:`run_points` exploits that: it maps a module-level worker function
over the point list, either serially (``jobs`` unset or <= 1) or on a *warm*
``multiprocessing`` pool, and always returns results in point order — so
assembling the campaign dict from the returned list produces output
byte-identical to a serial run (the parallel-equivalence tests and the CI
perf-smoke job both verify this).

The pool is persistent: the first parallel :func:`run_points` of a CLI
invocation forks it, every later sub-grid reuses it, and an ``atexit``
hook drains it cleanly. Workers are primed by an initializer that
pre-imports the campaign modules and materializes the campaign's base
:class:`~repro.params.Params` once per worker (exposed to point
functions via :func:`base_params`), so per-point pickles shrink to
tuples of primitives. Callers may pass a ``cost`` key; points are then
submitted largest-first (LPT scheduling) so one late 512 KB point can't
serialize the tail of the grid — results are still returned in the
original point order.

Workers must be module-level functions and point specs must be picklable
(tuples of primitives plus :class:`~repro.params.Params` dataclasses).
"""

from __future__ import annotations

import argparse
import atexit
import json
import multiprocessing
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..params import Params, default_params


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is substantially cheaper and the benchmark processes are
    # single-threaded, so prefer it where the platform offers it.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


#: The base Params the current campaign materialized for its point
#: functions — set by the pool initializer in workers and by
#: :func:`run_points` in the parent (so the serial path sees the same
#: value through the same accessor).
_worker_base: Optional[Params] = None

#: The persistent pool and the (jobs, base) it was built for.
_pool: Optional[Any] = None
_pool_jobs: int = 0
_pool_base: Optional[Params] = None


def _init_worker(base: Optional[Params]) -> None:
    """Pool initializer: prime a worker once instead of per point.

    Stashes the campaign's base :class:`Params` (reachable through
    :func:`base_params`) and pre-imports the campaign modules so spawn
    platforms pay the import cost here, not inside the first mapped
    point. Fork platforms inherit the parent's modules for free and this
    is a no-op beyond the base assignment.
    """
    global _worker_base
    _worker_base = base
    from . import (ablations, chaos, figures, scale,  # noqa: F401
                   scrub, shard)


def base_params() -> Params:
    """The campaign's base :class:`Params` as primed by the pool.

    Point functions call this instead of carrying a ``Params`` in every
    point spec — one pickle per worker at pool creation, not one per
    point. Falls back to :func:`default_params` when no campaign primed
    a base (e.g. a point function invoked directly from a test).
    """
    return _worker_base if _worker_base is not None else default_params()


def _in_worker() -> bool:
    # Pool workers are daemonic and cannot have children; a point
    # function that itself calls run_points degrades to serial there.
    return multiprocessing.current_process().daemon


def shutdown_pool() -> None:
    """Drain and discard the persistent pool (idempotent).

    Registered with ``atexit`` on first use; ``close``/``join`` rather
    than ``terminate`` so workers flush coverage data and exit cleanly.
    """
    global _pool
    if _pool is not None:
        _pool.close()
        _pool.join()
        _pool = None


def _get_pool(jobs: int, base: Optional[Params]) -> Any:
    """The persistent pool, rebuilt only when ``jobs`` or ``base`` change.

    ``base=None`` reuses whatever pool is warm regardless of its base
    (the mapped function doesn't consult :func:`base_params`); a concrete
    ``base`` must match the pool's, by :class:`Params` value equality,
    or the pool is rebuilt so workers re-prime.
    """
    global _pool, _pool_jobs, _pool_base
    if _pool is not None and _pool_jobs == jobs and (
            base is None or base == _pool_base):
        return _pool
    shutdown_pool()
    ctx = _pool_context()
    _pool = ctx.Pool(processes=jobs, initializer=_init_worker,
                     initargs=(base,))
    _pool_jobs, _pool_base = jobs, base
    atexit.register(shutdown_pool)
    return _pool


def warm_pool(jobs: int, base: Optional[Params] = None) -> None:
    """Pre-fork the pool and wait for every worker to come up.

    Benchmarks call this before timing a parallel region so the
    measurement sees the steady state a campaign CLI actually runs in
    (pool forked once, reused across sub-grids) rather than charging
    pool construction to the first grid.
    """
    if jobs <= 1 or _in_worker():
        return
    pool = _get_pool(jobs, base)
    pool.map(_prime, range(jobs), chunksize=1)


def _prime(_index: int) -> None:
    """No-op mapped by :func:`warm_pool` to force worker start-up."""


def run_points(fn: Callable[[Any], Any], points: Sequence[Any],
               jobs: Optional[int] = None,
               base: Optional[Params] = None,
               cost: Optional[Callable[[Any], float]] = None) -> List[Any]:
    """Map ``fn`` over ``points``, preserving point order in the result.

    ``jobs`` of ``None`` or <= 1 (or a single point) runs serially
    in-process with no multiprocessing machinery at all. Otherwise the
    points fan out across the persistent ``jobs``-worker pool, one point
    per task, which load-balances unequal point costs (a 512 KB figure
    point costs far more than a 4 KB one). Results come back in point
    order either way, so callers can zip them against the point list.

    ``base`` is the campaign's base :class:`Params`, primed once per
    worker and read back via :func:`base_params`. ``cost`` estimates a
    point's relative expense (any monotonic proxy: bytes moved, client
    count); when given, points are *submitted* most-expensive-first —
    classic largest-processing-time scheduling, which stops a big point
    picked up last from leaving every other worker idle — and the result
    list is re-ordered back to match ``points`` exactly.
    """
    global _worker_base
    points = list(points)
    if base is not None:
        _worker_base = base  # serial path + parent-side helpers
    if jobs is None or jobs <= 1 or len(points) <= 1 or _in_worker():
        return [fn(point) for point in points]
    pool = _get_pool(jobs, base)
    if cost is None:
        return pool.map(fn, points, chunksize=1)
    # Stable sort: equal-cost points keep grid order, so the submission
    # order — and therefore the result bytes — is deterministic.
    order = sorted(range(len(points)), key=lambda i: -cost(points[i]))
    mapped = pool.map(fn, [points[i] for i in order], chunksize=1)
    results: List[Any] = [None] * len(points)
    for slot, result in zip(order, mapped):
        results[slot] = result
    return results


def run_grid(fn: Callable[[Any], Any], specs: Sequence[Any],
             path_of: Callable[[Any], Tuple],
             jobs: Optional[int] = None,
             base: Optional[Params] = None,
             cost: Optional[Callable[[Any], float]] = None
             ) -> Dict[str, Any]:
    """Run a spec grid and fold the points into a nested result dict.

    ``path_of(spec)`` names where a spec's point lands: a tuple of dict
    keys, outermost first (e.g. ``(system, fault_class, "0.0100")``).
    Insertion order follows spec order, so the folded dict — and JSON
    dumped from it — is byte-identical for any ``jobs`` count.
    ``base``/``cost`` pass through to :func:`run_points`.
    """
    specs = list(specs)
    points = run_points(fn, specs, jobs=jobs, base=base, cost=cost)
    results: Dict[str, Any] = {}
    for spec, point in zip(specs, points):
        path = path_of(spec)
        node = results
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = point
    return results


def seeded_params(seed: Optional[int],
                  params: Optional[Params] = None) -> Params:
    """The campaign's base :class:`Params`, reseeded when ``--seed`` was
    given. Every campaign CLI resolves its master seed through this."""
    p = params if params is not None else default_params()
    return p.copy(seed=seed) if seed is not None else p


def positive_int(text: str) -> int:
    """argparse ``type=`` for sizes and counts: an integer >= 1, so a zero
    or negative size exits 2 with a usage message instead of crashing
    mid-campaign."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type=`` for counts where zero means none: an integer
    >= 0, so a negative count exits 2 with a usage message instead of
    printing an empty section."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse ``type=`` for intervals: a number > 0, so a zero or
    negative interval exits 2 with a usage message instead of a
    traceback."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value:g}")
    return value


def probability(text: str) -> float:
    """argparse ``type=`` for fault rates and fractions: a number in
    [0, 1], so a negative rate or one above 1 exits 2 instead of being
    reported as a measured point, and a tolerance outside it cannot make
    a gate always fail or switch it off."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {value:g}")
    return value


def add_campaign_args(parser: argparse.ArgumentParser,
                      seed_help: str = "master seed for every RNG "
                                       "stream") -> None:
    """The ``--seed/--jobs/--json`` trio every campaign CLI shares."""
    parser.add_argument("--seed", type=int, default=None, help=seed_help)
    parser.add_argument("--jobs", type=positive_int, default=None,
                        metavar="N",
                        help="worker processes for the campaign grid "
                             "(default: serial; output is byte-identical "
                             "for any job count)")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw campaign results as JSON")


def campaign_json(results: Any, **header: Any) -> str:
    """The canonical campaign JSON: header fields in keyword order, then
    ``results``, 2-space indent — the byte layout the CI smoke jobs diff."""
    return json.dumps({**header, "results": results}, indent=2)
