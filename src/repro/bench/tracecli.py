"""``repro-bench trace`` — span waterfalls and per-stage latency tables.

Runs a small-I/O workload with a tracer attached (or loads a previously
dumped JSONL trace) and prints where each request's time went: ASCII span
waterfalls, per-stage p50/p95/p99 tables grouped by data path (RPC, RDMA,
ORDMA, ORDMA-fault-fallback, local), the ORDMA fault timeline, and cache
hit-rate summaries. In live mode it also cross-checks the spans against
an independent response-time meter: the per-span stage sums must agree
with the measured end-to-end mean.

Examples::

    repro-bench trace                          # live ODAFS 4 KB reads
    repro-bench trace --system dafs --blocks 32
    repro-bench trace --dump /tmp/t.jsonl      # save trace + series
    repro-bench trace --input /tmp/t.jsonl     # re-analyze a dump
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster import SYSTEMS, Cluster
from ..params import KB, Params, default_params
from ..sim import (LatencyStats, SimulationError, Span, Tracer, load_jsonl)
from ..sim.timeseries import window_mean
from . import traceexport
from .figures import dafs_cache_kwargs
from .runner import (non_negative_int, positive_float, positive_int,
                     seeded_params)

#: Order in which data paths are reported.
PATH_ORDER = ("rpc", "rdma", "ordma", "ordma-fallback", "local")

#: ODAFS server cache blocks invalidated between the live workload's
#: passes, so the optimistic path demonstrably faults.
FAULT_BLOCKS = 4

#: Largest |attributed - duration| the critical-path reconciliation
#: accepts, in us: attribution is exact, so this only absorbs rounding.
RECONCILE_TOLERANCE_US = 1e-6

_WATERFALL_WIDTH = 44


# ---------------------------------------------------------------------------
# Live workload
# ---------------------------------------------------------------------------

def run_workload(system: str = "odafs", blocks: int = 64,
                 block_kb: int = 4, passes: int = 2,
                 params: Optional[Params] = None,
                 sample_interval_us: Optional[float] = None
                 ) -> Dict[str, Any]:
    """Run the Table 3-style small-I/O microbenchmark with tracing on.

    A file warm in the server cache is read ``passes`` times in
    ``block_kb`` KB increments through a small (8-block) client cache.
    For ODAFS, ``FAULT_BLOCKS`` server cache blocks are invalidated
    between the passes so the optimistic path demonstrably faults and
    falls back to RPC. ``sample_interval_us`` additionally attaches the
    cluster's continuous-telemetry sampler at that sim-time interval.
    Returns the cluster, tracer, response meter, and sampler (``None``
    when telemetry is off).
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; one of {SYSTEMS}")
    block = block_kb * KB
    cluster = Cluster(params or default_params(), system=system,
                      block_size=block,
                      server_cache_blocks=blocks + 8,
                      client_kwargs=dafs_cache_kwargs(system, 8))
    cluster.create_file("micro", blocks * block)
    tracer = Tracer.attach(cluster.sim)
    client = cluster.clients[0]
    meter = LatencyStats("read_response")

    def main():
        yield from client.open("micro")
        for pass_no in range(passes):
            if pass_no == 1 and system == "odafs":
                # Stale references: the next optimistic read of these
                # blocks faults at the server NIC and retries via RPC.
                for i in range(min(FAULT_BLOCKS, blocks)):
                    cluster.cache.invalidate(("micro", i))
            for i in range(blocks):
                start = cluster.sim.now
                yield from client.read("micro", i * block, block)
                meter.record(cluster.sim.now - start)

    proc = cluster.sim.process(main())
    sampler = None
    if sample_interval_us is not None:
        sampler = cluster.attach_sampler(interval_us=sample_interval_us)
        sampler.start(stop_on=proc)
    cluster.sim.run()
    if not proc.triggered:
        raise SimulationError(
            f"workload did not finish by t={cluster.sim.now}")
    if not proc.ok:
        raise proc.value
    return {"cluster": cluster, "tracer": tracer, "meter": meter,
            "sampler": sampler}


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def path_mix(spans: Sequence[Span]) -> Dict[str, int]:
    """Count finished spans by the data path they took."""
    out: Dict[str, int] = {}
    for span in spans:
        out[span.path] = out.get(span.path, 0) + 1
    return out


def stage_tables(spans: Sequence[Span]) -> Dict[str, Dict[str, LatencyStats]]:
    """{path: {stage: LatencyStats of per-span stage time}}."""
    tables: Dict[str, Dict[str, LatencyStats]] = {}
    for span in spans:
        stages = tables.setdefault(span.path, {})
        for stage, us in span.breakdown().items():
            stats = stages.get(stage)
            if stats is None:
                stats = stages[stage] = LatencyStats(stage)
            stats.record(us)
    return tables


def span_sum_mean(spans: Sequence[Span]) -> float:
    """Mean of per-span stage sums (== mean duration by construction)."""
    if not spans:
        return 0.0
    return sum(sum(s.breakdown().values()) for s in spans) / len(spans)


def _sorted_paths(keys) -> List[str]:
    order = {p: i for i, p in enumerate(PATH_ORDER)}
    return sorted(keys, key=lambda p: (order.get(p, len(order)), p))


# ---------------------------------------------------------------------------
# Critical-path attribution: service time vs. queueing wait
# ---------------------------------------------------------------------------

def service_floors(spans: Sequence[Span]) -> Dict[Tuple[str, str], float]:
    """Estimated pure service time per (path, stage).

    Each mark interval is service time plus whatever queueing the request
    suffered in that stage; the *minimum* interval observed across all
    spans of the same path is the contention-free floor (some request got
    through without waiting), so anything above it is attributed to
    queueing. The same decomposition a production profiler applies when
    it subtracts the uncontended baseline from a stage's latency.
    """
    floors: Dict[Tuple[str, str], float] = {}
    for span in spans:
        for stage, _component, _start, dur in span.stages():
            key = (span.path, stage)
            if key not in floors or dur < floors[key]:
                floors[key] = dur
    return floors


class StageSplit:
    """Aggregated service/wait split for one (path, stage)."""

    __slots__ = ("stage", "floor", "occurrences", "service", "wait")

    def __init__(self, stage: str, floor: float):
        self.stage = stage
        self.floor = floor
        self.occurrences = 0
        self.service = LatencyStats(f"{stage}.service")
        self.wait = LatencyStats(f"{stage}.wait")


def critical_path(spans: Sequence[Span]
                  ) -> Dict[str, Dict[str, StageSplit]]:
    """{path: {stage: StageSplit}} with per-span service/wait samples.

    For every span, each stage's total time splits into ``floor ×
    occurrences`` of service and the remainder of queueing wait; the two
    per-stage sums reconcile with ``span.duration`` exactly by
    construction (verified by :func:`critical_path_consistency`).
    """
    floors = service_floors(spans)
    tables: Dict[str, Dict[str, StageSplit]] = {}
    for span in spans:
        splits = tables.setdefault(span.path, {})
        totals: Dict[str, Tuple[float, int]] = {}
        for stage, _component, _start, dur in span.stages():
            total, count = totals.get(stage, (0.0, 0))
            totals[stage] = (total + dur, count + 1)
        for stage, (total, count) in totals.items():
            split = splits.get(stage)
            if split is None:
                split = splits[stage] = StageSplit(
                    stage, floors[(span.path, stage)])
            service = split.floor * count
            split.occurrences += count
            split.service.record(service)
            split.wait.record(max(0.0, total - service))
    return tables


def critical_path_consistency(spans: Sequence[Span]) -> float:
    """Max absolute error |Σ stage (service+wait) − duration| over spans.

    The acceptance bar for the attribution: per-span sums must reconcile
    with the span's end-to-end duration within float tolerance.
    """
    floors = service_floors(spans)
    worst = 0.0
    for span in spans:
        totals: Dict[str, Tuple[float, int]] = {}
        for stage, _component, _start, dur in span.stages():
            total, count = totals.get(stage, (0.0, 0))
            totals[stage] = (total + dur, count + 1)
        attributed = 0.0
        for stage, (total, count) in totals.items():
            service = floors[(span.path, stage)] * count
            attributed += service + max(0.0, total - service)
        worst = max(worst, abs(attributed - span.duration))
    return worst


#: A sampler series is a utilization fraction (comparable across
#: resources) iff its name ends with one of these.
_UTIL_SUFFIXES = (".util", "_util")


def dominant_resources(spans: Sequence[Span], series: traceexport.Series
                       ) -> Dict[str, Tuple[str, float]]:
    """{path: (series name, mean util)} — the busiest utilization-type
    sampled series over each path's span time envelope. Empty without
    sampled series (e.g. an ``--input`` dump written without them)."""
    items = traceexport._series_items(series)
    candidates = [(name, points) for name, points in items
                  if name.endswith(_UTIL_SUFFIXES)]
    if not candidates:
        return {}
    envelopes: Dict[str, Tuple[float, float]] = {}
    for span in spans:
        t0, t1 = envelopes.get(span.path, (float("inf"), 0.0))
        envelopes[span.path] = (min(t0, span.start_ts),
                                max(t1, span.end_ts))
    out: Dict[str, Tuple[str, float]] = {}
    for path, (t0, t1) in envelopes.items():
        best: Optional[Tuple[str, float]] = None
        for name, points in candidates:
            mean = window_mean(points, t0, t1)
            if mean is None:
                continue
            if best is None or mean > best[1]:
                best = (name, mean)
        if best is not None:
            out[path] = best
    return out


def render_critical_path(
        tables: Dict[str, Dict[str, StageSplit]],
        dominant: Dict[str, Tuple[str, float]],
        consistency_us: float, n_spans: int) -> Tuple[str, bool]:
    """The "where did p50/p95/p99 go" tables; returns (text, ok)."""
    lines: List[str] = []
    for path in _sorted_paths(tables):
        splits = tables[path]
        n = max(s.service.count for s in splits.values())
        header = f"path={path} ({n} spans)"
        resource = dominant.get(path)
        if resource is not None:
            header += (f"   dominant resource: {resource[0]} "
                       f"(mean util {resource[1]:.2f})")
        lines.append(header)
        lines.append(f"  {'stage':<16} {'count':>5} {'occ':>5} "
                     f"{'svc mean':>9} {'wait mean':>9} {'wait p50':>9} "
                     f"{'wait p95':>9} {'wait p99':>9} {'wait%':>6}")
        path_service = sum(s.service.mean * s.service.count
                           for s in splits.values()) / n
        path_wait = sum(s.wait.mean * s.wait.count
                        for s in splits.values()) / n
        path_total = path_service + path_wait
        for stage, split in sorted(
                splits.items(),
                key=lambda kv: -(kv[1].service.mean + kv[1].wait.mean)):
            share = (split.wait.mean * split.wait.count / n / path_total
                     if path_total else 0.0)
            lines.append(
                f"  {stage:<16} {split.service.count:>5} "
                f"{split.occurrences:>5} {split.service.mean:>9.2f} "
                f"{split.wait.mean:>9.2f} "
                f"{split.wait.percentile(50):>9.2f} "
                f"{split.wait.percentile(95):>9.2f} "
                f"{split.wait.percentile(99):>9.2f} {share:>6.1%}")
        service_share = path_service / path_total if path_total else 0.0
        lines.append(f"  per span: {path_total:.2f}us mean = "
                     f"{path_service:.2f}us service "
                     f"({service_share:.1%}) + {path_wait:.2f}us wait")
    ok = consistency_us <= RECONCILE_TOLERANCE_US
    lines.append(f"reconciliation: max |attributed - duration| = "
                 f"{consistency_us:.3e} us over {n_spans} spans "
                 + ("[OK]" if ok else "[MISMATCH]"))
    return "\n".join(lines), ok


def critical_path_json(
        tables: Dict[str, Dict[str, StageSplit]],
        dominant: Dict[str, Tuple[str, float]]) -> Dict[str, Any]:
    """JSON-friendly view of :func:`critical_path`."""
    out: Dict[str, Any] = {}
    for path, splits in tables.items():
        resource = dominant.get(path)
        out[path] = {
            "dominant_resource": resource[0] if resource else None,
            "dominant_util": resource[1] if resource else None,
            "stages": {
                stage: {
                    "count": split.service.count,
                    "occurrences": split.occurrences,
                    "service_floor_us": split.floor,
                    "service": split.service.summary(),
                    "wait": split.wait.summary(),
                }
                for stage, split in splits.items()
            },
        }
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_waterfall(span: Span) -> str:
    """ASCII waterfall of one span: per-stage bars on a shared time axis."""
    total = span.duration if span.finished else None
    if not total:
        return f"span #{span.rid} {span.op} (unfinished)"
    lines = [f"span #{span.rid} {span.op} origin={span.origin} "
             f"path={span.path} total={total:.2f}us"]
    for stage, component, start, dur in span.stages():
        rel = start - span.start_ts
        lead = int(round(rel / total * _WATERFALL_WIDTH))
        width = max(1, int(round(dur / total * _WATERFALL_WIDTH)))
        bar = " " * min(lead, _WATERFALL_WIDTH - 1) + "#" * width
        lines.append(f"  {rel:9.2f} {dur:8.2f}us  {stage:<16} "
                     f"{component:<12} {bar[:_WATERFALL_WIDTH + 8]}")
    return "\n".join(lines)


def render_stage_tables(
        tables: Dict[str, Dict[str, LatencyStats]]) -> str:
    """Per-path stage tables (count/mean/p50/p95/p99) plus a sum row."""
    lines: List[str] = []
    for path in _sorted_paths(tables):
        stages = tables[path]
        n = max(s.count for s in stages.values())
        lines.append(f"path={path} ({n} spans)")
        lines.append(f"  {'stage':<16} {'count':>5} {'mean':>9} "
                     f"{'p50':>9} {'p95':>9} {'p99':>9}")
        total_mean = 0.0
        for stage, stats in sorted(stages.items(),
                                   key=lambda kv: -kv[1].mean):
            total_mean += stats.mean * stats.count / n
            lines.append(
                f"  {stage:<16} {stats.count:>5} {stats.mean:>9.2f} "
                f"{stats.percentile(50):>9.2f} "
                f"{stats.percentile(95):>9.2f} "
                f"{stats.percentile(99):>9.2f}")
        lines.append(f"  {'(stage sum/span)':<16} {'':>5} "
                     f"{total_mean:>9.2f}us")
    return "\n".join(lines)


#: Event kinds that belong on the fault/recovery timeline: injected
#: faults ('fault', from repro.faults adapters) interleaved with the
#: resilience machinery's reactions to them.
FAULT_TIMELINE_KINDS = ("ordma-fault", "fault", "rpc-retransmit",
                        "rpc-timeout", "rdma-timeout")


def fault_timeline_events(events) -> List:
    """Chronological injected-fault and recovery events."""
    return [ev for ev in events if ev.kind in FAULT_TIMELINE_KINDS]


def render_fault_timeline(events) -> str:
    """Fault -> retry -> recovery timeline: ORDMA faults, injected
    faults, and the RPC/RDMA timeout and retransmission reactions."""
    faults = fault_timeline_events(events)
    if not faults:
        return "  (no faults)"
    lines = []
    for ev in faults:
        detail = ev.detail
        if ev.kind == "ordma-fault":
            what = (f"initiator={detail.get('initiator')} "
                    f"reason={detail.get('reason')!r}")
        elif ev.kind == "fault":
            rest = {k: v for k, v in detail.items()
                    if k not in ("cls", "mode")}
            what = (f"injected {detail.get('cls')}.{detail.get('mode')}"
                    + (f" {rest}" if rest else ""))
        elif ev.kind == "rpc-retransmit":
            what = (f"retransmit xid={detail.get('xid')} "
                    f"attempt={detail.get('attempt')} "
                    f"backoff={detail.get('backoff_us')}us")
        elif ev.kind == "rpc-timeout":
            what = (f"rpc gave up xid={detail.get('xid')} "
                    f"after {detail.get('attempts')} attempts")
        else:  # rdma-timeout
            what = (f"rdma {detail.get('op')} timeout "
                    f"msg={detail.get('msg')}")
        lines.append(f"  [{ev.ts:12.2f}us] {ev.component:<10} "
                     f"{ev.kind:<14} {what}")
    return "\n".join(lines)


def render_cache_summary(events,
                         cluster: Optional[Cluster] = None) -> str:
    """Client-cache event tallies, plus server-cache hit rate if live."""
    counts: Dict[str, int] = {}
    for ev in events:
        if ev.kind in ("cache-hit", "cache-miss", "cache-evict"):
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
    hits = counts.get("cache-hit", 0)
    total = hits + counts.get("cache-miss", 0)
    lines = [f"  client cache events: {hits} hits, "
             f"{counts.get('cache-miss', 0)} misses, "
             f"{counts.get('cache-evict', 0)} evictions"
             + (f" (hit rate {hits / total:.1%})" if total else "")]
    if cluster is not None:
        server = cluster.metrics.subtree("server.cache")
        s_hits = server.get("server.cache.hits", 0)
        s_total = s_hits + server.get("server.cache.misses", 0)
        lines.append(f"  server cache: {s_hits} hits, "
                     f"{server.get('server.cache.misses', 0)} misses"
                     + (f" (hit rate {s_hits / s_total:.1%})"
                        if s_total else ""))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _select_waterfalls(spans: Sequence[Span], limit: int) -> List[Span]:
    """One exemplar per path first, longest-duration extras after."""
    chosen: List[Span] = []
    seen_paths = set()
    for span in spans:
        if span.path not in seen_paths:
            seen_paths.add(span.path)
            chosen.append(span)
    extras = sorted((s for s in spans if s not in chosen),
                    key=lambda s: -s.duration)
    chosen.extend(extras)
    return chosen[:limit]


def main(argv=None) -> int:
    """Entry point for ``repro-bench trace``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench trace",
        description="Analyze end-to-end request spans: waterfalls, "
                    "per-stage latency tables, fault timelines.")
    parser.add_argument("--input", metavar="PATH",
                        help="analyze a dumped JSONL trace instead of "
                             "running a workload")
    parser.add_argument("--system", default="odafs", choices=SYSTEMS,
                        help="NAS system for the live workload")
    parser.add_argument("--blocks", type=positive_int, default=None,
                        help="blocks per pass in the live workload "
                             "(default 64, 16 with --quick)")
    parser.add_argument("--block-kb", type=positive_int, default=4,
                        help="I/O size in KB")
    parser.add_argument("--passes", type=positive_int, default=2,
                        help="number of read passes over the file")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write the trace (events, spans and "
                             "sampled series) as JSONL")
    parser.add_argument("--perfetto", metavar="PATH",
                        help="export spans + events + telemetry as "
                             "Chrome/Perfetto Trace Event Format JSON")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the service-vs-queueing attribution "
                             "table per path class")
    parser.add_argument("--sample-interval", type=positive_float,
                        default=50.0,
                        metavar="US",
                        help="telemetry sampling interval in sim-us "
                             "(default 50)")
    parser.add_argument("--waterfalls", type=non_negative_int, default=3,
                        help="how many span waterfalls to print")
    parser.add_argument("--quick", action="store_true",
                        help="smaller defaults (16 blocks); explicit "
                             "options still win")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for the live workload's RNGs")
    parser.add_argument("--json", action="store_true",
                        help="emit the analysis as JSON")
    args = parser.parse_args(argv)
    params = seeded_params(args.seed)

    meter = None
    cluster = None
    if args.input:
        try:
            dump = load_jsonl(args.input)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read --input trace: {exc}")
        events = dump.events
        spans = dump.finished_spans()
        series = dump.series
        source = f"{args.input} ({dump.emitted} emitted, "\
                 f"{dump.dropped} dropped)"
    else:
        blocks = args.blocks or (16 if args.quick else 64)
        # Telemetry rides along only when an output needs it, so the
        # default trace run stays event-for-event identical to the seed.
        want_sampler = bool(args.perfetto or args.dump
                            or args.critical_path)
        live = run_workload(system=args.system, blocks=blocks,
                            block_kb=args.block_kb, passes=args.passes,
                            params=params,
                            sample_interval_us=(args.sample_interval
                                                if want_sampler else None))
        cluster = live["cluster"]
        tracer = live["tracer"]
        meter = live["meter"]
        sampler = live["sampler"]
        series = sampler.series if sampler is not None else None
        if args.dump:
            tracer.dump_jsonl(args.dump, series=series)
        events = list(tracer)
        spans = tracer.finished_spans()
        source = (f"live {args.system}, {blocks}x{args.block_kb}KB reads "
                  f"x{args.passes} passes")

    if args.perfetto:
        traceexport.dump_perfetto(args.perfetto, events=events,
                                  spans=spans, series=series)

    read_spans = [s for s in spans if s.op == "read"]
    tables = stage_tables(read_spans)
    mix = path_mix(read_spans)

    cp_tables = cp_dominant = None
    cp_error = 0.0
    cp_ok = True
    if args.critical_path:
        cp_tables = critical_path(read_spans)
        cp_dominant = dominant_resources(read_spans, series)
        cp_error = critical_path_consistency(read_spans)
        cp_ok = cp_error <= RECONCILE_TOLERANCE_US
    # Live runs cross-check the spans against the independent meter; JSON
    # and text runs exit alike on a mismatch.
    delta = None
    if meter is not None and meter.count:
        spans_mean = span_sum_mean(read_spans)
        delta = abs(spans_mean - meter.mean) / meter.mean * 100.0
    ok = cp_ok and (delta is None or delta < 1.0)

    if args.json:
        out: Dict[str, Any] = {
            "source": source,
            "path_mix": mix,
            "stages": {path: {stage: stats.summary()
                              for stage, stats in stages.items()}
                       for path, stages in tables.items()},
            "faults": [ev.as_dict() for ev in fault_timeline_events(events)],
        }
        if meter is not None:
            out["meter_mean_us"] = meter.mean
            out["span_sum_mean_us"] = span_sum_mean(read_spans)
        if cp_tables is not None:
            out["critical_path"] = critical_path_json(cp_tables,
                                                      cp_dominant)
            out["critical_path_max_error_us"] = cp_error
        print(json.dumps(out, indent=2, default=str))
        return 0 if ok else 1

    print(f"Trace analysis — {source}")
    print(f"\n== Path mix ({len(read_spans)} read spans) ==")
    for path in _sorted_paths(mix):
        print(f"  {path:<16} {mix[path]:>5}")

    print("\n== Per-stage latency by path (us) ==")
    print(render_stage_tables(tables))

    if cp_tables is not None:
        print("\n== Critical path: service vs queueing wait (us) ==")
        text, _ = render_critical_path(cp_tables, cp_dominant,
                                       cp_error, len(read_spans))
        print(text)

    print("\n== Span waterfalls ==")
    for span in _select_waterfalls(read_spans, args.waterfalls):
        print(render_waterfall(span))

    print("\n== ORDMA fault timeline ==")
    print(render_fault_timeline(events))

    print("\n== Cache summary ==")
    print(render_cache_summary(events, cluster))

    if delta is not None:
        print(f"\n== Consistency check ==")
        print(f"  meter mean response time : {meter.mean:10.2f} us "
              f"({meter.count} reads)")
        print(f"  span stage-sum mean      : {spans_mean:10.2f} us "
              f"({len(read_spans)} spans)")
        print(f"  delta                    : {delta:10.3f} %"
              + ("  [OK <1%]" if delta < 1.0 else "  [MISMATCH]"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
