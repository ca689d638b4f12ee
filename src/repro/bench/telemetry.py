"""``repro-bench telemetry`` — ASCII sparkline timelines of sampled gauges.

Runs the trace CLI's small-I/O workload with the cluster's continuous
telemetry sampler attached and renders each recorded series as a compact
sparkline timeline — queue depths filling and draining, windowed CPU
utilization per category, cache hit rate converging — the same counter
tracks the Perfetto export carries, readable without leaving the
terminal.

With ``--systems a,b`` it becomes a comparison campaign instead: each
system runs as one point through the parallel campaign runner
(:func:`repro.bench.runner.run_points`), and the report tabulates mean
utilizations side by side — the Fig. 7 story ("the server CPU leaves the
data path under ODAFS") read directly off the ``server.cpu.util`` track.
Campaign points are pure functions of (system, seed), so results are
byte-identical for any ``--jobs`` count.

Examples::

    repro-bench telemetry                         # odafs timelines
    repro-bench telemetry --series server.cpu     # filter series
    repro-bench telemetry --systems nfs,odafs     # Fig. 7 comparison
    repro-bench telemetry --dump /tmp/t.jsonl     # trace + series JSONL
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster import SYSTEMS
from . import runner, tracecli

#: Sparkline glyph ramp, lowest to highest.
SPARK = "▁▂▃▄▅▆▇█"


# ---------------------------------------------------------------------------
# Sparklines
# ---------------------------------------------------------------------------


def resample(values: Sequence[float], width: int) -> List[float]:
    """Reduce ``values`` to at most ``width`` bucket means, preserving
    order. Fewer values than buckets pass through unchanged."""
    n = len(values)
    if n <= width:
        return list(values)
    out = []
    for i in range(width):
        lo = i * n // width
        hi = max(lo + 1, (i + 1) * n // width)
        bucket = values[lo:hi]
        out.append(sum(bucket) / len(bucket))
    return out


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render ``values`` as a fixed-width run of block glyphs, scaled to
    the series' own min..max (a flat series renders as the low glyph)."""
    if not values:
        return ""
    samples = resample(values, width)
    lo, hi = min(samples), max(samples)
    span = hi - lo
    if span <= 0:
        return SPARK[0] * len(samples)
    top = len(SPARK) - 1
    return "".join(SPARK[min(top, int((v - lo) / span * len(SPARK)))]
                   for v in samples)


def render_timelines(series: Dict[str, List[Tuple[float, float]]],
                     width: int = 60,
                     match: Optional[Sequence[str]] = None) -> str:
    """One line per series: name, sample count, min/mean/max, sparkline.

    ``match`` filters to series whose dotted name contains any of the
    given substrings (the CLI's ``--series`` option).
    """
    names = [name for name in series
             if not match or any(m in name for m in match)]
    if not names:
        return "  (no matching series)"
    name_w = max(len(name) for name in names)
    lines = []
    for name in names:
        values = [v for _ts, v in series[name]]
        if not values:
            lines.append(f"  {name:<{name_w}}  (no samples)")
            continue
        mean = sum(values) / len(values)
        lines.append(
            f"  {name:<{name_w}} n={len(values):>4} "
            f"min {min(values):>9.3f} mean {mean:>9.3f} "
            f"max {max(values):>9.3f}  {sparkline(values, width)}")
    return "\n".join(lines)


def series_summary(series: Dict[str, List[Tuple[float, float]]]
                   ) -> Dict[str, Dict[str, Any]]:
    """JSON-friendly per-series stats (count/min/mean/max/last)."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, points in series.items():
        values = [v for _ts, v in points]
        if not values:
            out[name] = {"n": 0}
            continue
        out[name] = {
            "n": len(values), "min": min(values),
            "mean": sum(values) / len(values), "max": max(values),
            "last": values[-1],
        }
    return out


# ---------------------------------------------------------------------------
# Comparison campaign (module-level worker: must stay picklable)
# ---------------------------------------------------------------------------


def telemetry_point(system: str, blocks: int = 64, block_kb: int = 4,
                    passes: int = 2, interval_us: float = 50.0,
                    seed: Optional[int] = None) -> Tuple:
    """One campaign point spec: a tuple of primitives (picklable)."""
    return (system, blocks, block_kb, passes, interval_us, seed)


def run_telemetry_point(point: Tuple) -> Dict[str, Any]:
    """Campaign worker: run one sampled workload, return plain data.

    A pure function of the point spec — fresh cluster, seeded RNG streams
    — so :func:`repro.bench.runner.run_points` yields byte-identical
    results at any job count. The returned dict carries whole-run means
    per series and tick accounting; no live simulator objects cross the
    process boundary.
    """
    system, blocks, block_kb, passes, interval_us, seed = point
    live = tracecli.run_workload(system=system, blocks=blocks,
                                 block_kb=block_kb, passes=passes,
                                 params=runner.seeded_params(seed),
                                 sample_interval_us=interval_us)
    sampler = live["sampler"]
    return {
        "system": system,
        "ticks": sampler.ticks,
        "dropped": sampler.dropped,
        "means": {name: series.mean()
                  for name, series in sampler.series.items()},
    }


def run_campaign(systems: Sequence[str], blocks: int = 64,
                 block_kb: int = 4, passes: int = 2,
                 interval_us: float = 50.0, seed: Optional[int] = None,
                 jobs: Optional[int] = None) -> List[Dict[str, Any]]:
    """Run one telemetry point per system, in point order."""
    points = [telemetry_point(system, blocks=blocks, block_kb=block_kb,
                              passes=passes, interval_us=interval_us,
                              seed=seed)
              for system in systems]
    return runner.run_points(run_telemetry_point, points, jobs=jobs)

#: Mean-utilization columns of the comparison table, in display order.
COMPARE_COLUMNS = ("server.cpu.util", "server.cpu.util.copy",
                   "client0.cpu.util", "net.server.tx_util")


def render_campaign(results: Sequence[Dict[str, Any]]) -> str:
    """Side-by-side mean utilizations per system, plus the Fig. 7 read:
    how far ODAFS drops the server CPU relative to the NFS data path."""
    lines = [f"  {'system':<12} {'ticks':>6} "
             + " ".join(f"{col:>20}" for col in COMPARE_COLUMNS)]
    for result in results:
        means = result["means"]
        cells = []
        for col in COMPARE_COLUMNS:
            value = means.get(col)
            cells.append(f"{value:>20.4f}" if value is not None
                         else f"{'-':>20}")
        lines.append(f"  {result['system']:<12} {result['ticks']:>6} "
                     + " ".join(cells))
    by_system = {r["system"]: r["means"] for r in results}
    nfs = by_system.get("nfs", {}).get("server.cpu.util")
    odafs = by_system.get("odafs", {}).get("server.cpu.util")
    if nfs and odafs is not None:
        lines.append(
            f"  server CPU out of the data path: odafs mean util "
            f"{odafs:.4f} vs nfs {nfs:.4f} "
            f"({(1 - odafs / nfs) * 100:.0f}% lower)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _systems(text: str) -> List[str]:
    """argparse ``type=`` for ``--systems``: comma-separated names from
    :data:`SYSTEMS`, at least one, so an empty or unknown list exits 2
    with a usage message instead of running an empty campaign."""
    systems = [s.strip() for s in text.split(",") if s.strip()]
    unknown = [s for s in systems if s not in SYSTEMS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown systems {unknown}; choose from {SYSTEMS}")
    if not systems:
        raise argparse.ArgumentTypeError(
            f"must name at least one system, got {text!r}")
    return systems


def main(argv=None) -> int:
    """Entry point for ``repro-bench telemetry``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench telemetry",
        description="Sample component gauges over a live workload and "
                    "render sparkline timelines, or compare mean "
                    "utilizations across systems (--systems).")
    parser.add_argument("--system", default="odafs", choices=SYSTEMS,
                        help="NAS system for the single-run timelines")
    parser.add_argument("--systems", type=_systems, metavar="A,B,...",
                        help="comparison campaign over these systems "
                             "instead of single-run timelines")
    parser.add_argument("--blocks", type=runner.positive_int, default=None,
                        help="blocks per pass in the workload (default 64, "
                             "16 with --quick)")
    parser.add_argument("--block-kb", type=runner.positive_int, default=4,
                        help="I/O size in KB")
    parser.add_argument("--passes", type=runner.positive_int, default=2,
                        help="number of read passes over the file")
    parser.add_argument("--interval", type=runner.positive_float,
                        default=50.0,
                        metavar="US", help="sampling interval in sim-us")
    parser.add_argument("--quick", action="store_true",
                        help="smaller defaults (16 blocks); explicit "
                             "options still win")
    parser.add_argument("--series", metavar="SUBSTR[,SUBSTR...]",
                        help="only show series whose name contains one "
                             "of these substrings")
    parser.add_argument("--width", type=runner.positive_int, default=60,
                        help="sparkline width in characters")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write the trace (events, spans and "
                             "sampled series) as JSONL (single-run mode)")
    # The shared campaign surface (--seed/--jobs/--json), registered
    # through the one common helper like every other campaign CLI.
    runner.add_campaign_args(
        parser, seed_help="master seed for every simulation RNG")
    args = parser.parse_args(argv)
    blocks = args.blocks or (16 if args.quick else 64)

    if args.systems is not None:
        results = run_campaign(args.systems, blocks=blocks,
                               block_kb=args.block_kb,
                               passes=args.passes,
                               interval_us=args.interval, seed=args.seed,
                               jobs=args.jobs)
        if args.json:
            print(json.dumps(
                {r["system"]: {"ticks": r["ticks"],
                               "means": r["means"]} for r in results},
                indent=2, default=str))
            return 0
        print(f"Telemetry campaign — {blocks}x{args.block_kb}KB reads "
              f"x{args.passes} passes, interval {args.interval:g}us "
              f"(mean of each utilization series over the whole run)")
        print(render_campaign(results))
        return 0

    live = tracecli.run_workload(system=args.system, blocks=blocks,
                                 block_kb=args.block_kb,
                                 passes=args.passes,
                                 params=runner.seeded_params(args.seed),
                                 sample_interval_us=args.interval)
    sampler = live["sampler"]
    if args.dump:
        live["tracer"].dump_jsonl(args.dump, series=sampler.series)
    series = {name: list(ts.points)
              for name, ts in sampler.series.items()}
    match = ([m.strip() for m in args.series.split(",") if m.strip()]
             if args.series else None)
    if args.json:
        summary = series_summary(series)
        if match:
            summary = {name: stats for name, stats in summary.items()
                       if any(m in name for m in match)}
        print(json.dumps({
            "system": args.system, "ticks": sampler.ticks,
            "interval_us": sampler.interval_us,
            "dropped": sampler.dropped, "series": summary,
        }, indent=2, default=str))
        return 0
    print(f"Telemetry — live {args.system}, {blocks}x{args.block_kb}KB "
          f"reads x{args.passes} passes, interval {args.interval:g}us: "
          f"{sampler.ticks} ticks, {len(series)} series"
          + (f", {sampler.dropped} dropped" if sampler.dropped else ""))
    print(render_timelines(series, width=args.width, match=match))
    return 0

if __name__ == "__main__":
    sys.exit(main())
