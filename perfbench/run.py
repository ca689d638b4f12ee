#!/usr/bin/env python3
"""Host-cost benchmark of three campaign workloads, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-4k --seed 2003 --seconds 30 --trace 0

Passes (campaign points) of one workload run back to back, serially, in
this one process and thread, until ``--seconds`` have passed. The
host-speed calibration loop (``calibrate.py``) runs between passes, and
host times are reported scaled to the reference host speed. Every pass is
checked: cross-layer conservation, agreement of its simulated-result
digest with the run's other passes, and, at the reference seed, with the
digest recorded in ``reference.json``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics, adding
one profiled pass whose spans and counts are written to
``perfbench/out/``. The last line of standard output is the JSON result;
the lines before it print every metric by name with its unit and
direction, and the exact simulated counts. See ``README.md`` beside this
file for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

from calibrate import REFERENCE_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: A run keeps going past ``--seconds`` until it has this many passes.
MIN_PASSES = 3
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    :data:`TAIL_BEYOND` samples above it; the maximum when there are too
    few samples for any."""
    ordered = sorted(samples)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank < 0:
        return ordered[-1], 100.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


#: How strongly a pass's host time follows the calibration loop's. Over
#: about 100 passes each of ``fig7-4k`` and ``shard-odafs-rw``, the
#: log-log slope of pass time on loop time was 0.3-0.57: the simulator
#: slows about half as much as the allocation-heavy loop does when the
#: host is loaded, so scaling by the full ratio over-corrects. The square
#: root halved the spread of run medians against the full ratio.
SENSITIVITY = 0.5


def _scale(before_s: float, after_s: float) -> float:
    """Factor from a pass's host seconds to reference-host seconds, from
    the calibrations either side of it."""
    return (2 * REFERENCE_S / (before_s + after_s)) ** SENSITIVITY


def measure(workload: str, seed: int, seconds: float,
            size: str) -> Tuple[list, int, float]:
    """Untraced (scale, pass) pairs for ``seconds``; also the number of
    passes that raised, and the last calibration time."""
    from workloads import run_pass
    passes = []
    raised = 0
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while (len(passes) + raised < MIN_PASSES
           or time.perf_counter() < deadline):
        try:
            result = run_pass(workload, seed, size)
        except Exception:  # a crash is a failed point, not a data point
            traceback.print_exc()
            raised += 1
            result = None
        after = calibrate()
        if result is not None:
            passes.append((_scale(before, after), result))
        before = after
    return passes, raised, before


def check(passes: list, workload: str, seed: int,
          size: str) -> Tuple[List[str], int, str]:
    """Output checks; returns (messages, failed passes, reference note)."""
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    expected = passes[0].digest if passes else None
    note = "not recorded for this seed"
    if seed == reference["seed"] and size == "full":
        expected = reference["digests"][workload]
        note = "recorded"
    messages = []
    failed = 0
    for i, p in enumerate(passes):
        errors = list(p.errors)
        if p.digest != expected:
            errors.append(f"digest {p.digest} != {expected}")
        if errors:
            failed += 1
            messages.extend(f"pass {i}: {e}" for e in errors)
    return messages, failed, note


def model_rates(counts: Dict[str, int], ops: int) -> Dict[str, float]:
    """Exact simulated per-op counts and fractions of one pass."""
    return {
        "sim.events_per_op": _ratio(counts["events"], ops),
        "net.frames_per_op": _ratio(counts["frames"], ops),
        "proto.rpc_calls_per_op": _ratio(counts["rpc_calls"], ops),
        "proto.rpc_retry_frac": _ratio(counts["rpc_rejected"],
                                       counts["rpc_calls"]),
        "nas.server.sched_reject_frac": _ratio(
            counts["sched_rejected"],
            counts["sched_admitted"] + counts["sched_rejected"]),
        "nas.client.ordma_frac": _ratio(
            counts["ordma_reads"],
            counts["ordma_reads"] + counts["ordma_rpc_fills"]),
        "nas.client.directory_hit_frac": _ratio(
            counts["dir_hits"], counts["dir_hits"] + counts["dir_misses"]),
        "nas.client.invalidations": float(counts["dir_invalidations"]),
        "nas.shard.segments_per_op": _ratio(counts["shard_segments"], ops),
        "cache.server_hit_frac": _ratio(
            counts["server_cache_hits"],
            counts["server_cache_hits"] + counts["server_cache_misses"]),
        "cache.client_hit_frac": _ratio(
            counts["client_cache_hits"],
            counts["client_cache_hits"] + counts["client_cache_misses"]),
    }


def _median(passes: list, seconds) -> float:
    """Median over passes of ``seconds(pass)`` in reference-host seconds."""
    return statistics.median(k * seconds(p) for k, p in passes)


def end_to_end(passes: list) -> Dict[str, float]:
    """Medians over the run's passes."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sim_ops_per_s": statistics.median(p.ops / (k * p.run_s)
                                           for k, p in passes),
        "point_s": _median(passes, lambda p: p.point_s),
        "setup_s": _median(passes, lambda p: p.setup_s),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(passes: list, traced_scale: float,
              trace: Dict[str, Any]) -> Dict[str, float]:
    """Host shares from the traced pass; counts exact; times medians."""
    first = passes[0][1]
    point_s = [k * p.point_s for k, p in passes]
    tail, tail_pct = _tail(point_s)
    traced_s = trace["point_s"]
    metrics = {
        "cluster.build_s": _median(passes,
                                   lambda p: p.phases.totals["build"]),
        "cluster.files_s": _median(passes,
                                   lambda p: p.phases.totals["files"]),
        "cluster.teardown_s": _median(
            passes, lambda p: p.phases.totals["teardown"]),
        "hw.memory.pages_built": float(trace["counts"]["pages_built"]),
        "sim.events_per_s": statistics.median(
            p.counts["events"] / (k * p.run_s) for k, p in passes),
        "hw.cpu.execute_per_op": _ratio(trace["counts"]["cpu_charges"],
                                        first.ops),
    }
    metrics.update(model_rates(first.counts, first.ops))
    for layer, seconds in trace["self_s"].items():
        metrics[f"{layer}.self_frac"] = seconds / traced_s
    metrics.update({
        "bench.point_s_tail": tail,
        "bench.point_s_tail_pct": tail_pct,
        "bench.point_samples": float(len(passes)),
        "trace.overhead_frac": (traced_scale * traced_s
                                / statistics.median(point_s) - 1.0),
        "trace.accounted_frac": sum(trace["self_s"].values()) / traced_s,
    })
    return metrics


def _describe(passes: list, workload: str) -> List[str]:
    """Raw host times, and the exact counts (which any change that only
    speeds the simulator up must leave identical)."""
    first = passes[0][1]
    point_s = statistics.median(p.point_s for _, p in passes)
    setup_s = statistics.median(p.setup_s for _, p in passes)
    chunk_s = REFERENCE_S / statistics.median(
        k for k, _ in passes) ** (1 / SENSITIVITY)
    lines = [
        f"unscaled host medians: point_s {point_s:.4f} s, setup_s "
        f"{setup_s:.4f} s; calibration chunk {chunk_s:.5f} s (reference "
        f"{REFERENCE_S} s)",
        f"exact simulated counts ({first.ops} ops per point): "
        + ", ".join(f"{k} {v:.6g}"
                    for k, v in model_rates(first.counts, first.ops).items()),
    ]
    if workload == "fig7-4k":
        from repro.bench.figures import PAPER_FIG7_GAIN
        dafs, odafs = (c.point["throughput_mb_s"] for c in first.cells)
        gain = odafs / dafs - 1.0
        lines.append(
            f"fig7 4 KB: ODAFS over DAFS server throughput {gain:+.1%} "
            f"({odafs:.2f} vs {dafs:.2f} MB/s); paper {PAPER_FIG7_GAIN:+.0%}"
            f", error {gain - PAPER_FIG7_GAIN:+.1%} (informational)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7-4k", "scale-nfs-32",
                                 "shard-odafs-rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced pass size")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: simulator sources not found at {SRC}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    passes, raised, calibration_s = measure(args.workload, args.seed,
                                            args.seconds, args.size)
    untraced = [p for _, p in passes]
    messages, failed, note = check(untraced, args.workload, args.seed,
                                   args.size)
    failed += raised
    attempted = len(passes) + raised

    traced_scale = trace = None
    if args.trace and passes:
        from layers import traced_pass
        traced, trace = traced_pass(args.workload, args.seed, args.size)
        traced_scale = _scale(calibration_s, calibrate())
        if (traced.digest != untraced[0].digest
                or traced.counts != untraced[0].counts or traced.errors):
            messages.append("traced pass: simulated results differ from "
                            "the untraced passes")
            failed += 1
        attempted += 1
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-{args.size}.trace.json")
        with open(path, "w") as f:
            json.dump(trace, f, indent=1)
        print(f"trace written to {os.path.relpath(path, ROOT)}")

    for message in messages:
        print(f"CHECK FAILED: {message}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} points "
          f"attempted, {failed} failed (failed_frac "
          f"{_ratio(failed, attempted):.4f})")
    if passes:
        print(f"digest {untraced[0].digest} (reference: {note})")
        for line in _describe(passes, args.workload):
            print(line)

    correct = failed == 0 and bool(passes)
    metrics: Dict[str, Dict[str, Any]] = {}
    if correct:
        kind = "per_layer" if args.trace else "end_to_end"
        values = (per_layer(passes, traced_scale, trace) if args.trace
                  else end_to_end(passes))
        for m in spec[kind]:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<32} {value:>14.6g} {m['unit']:<9} "
                  f"({m['better']} is better, n={len(passes)})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
