"""``repro-bench perf`` — microbenchmarks of the simulation engine itself.

The paper's argument is about shaving per-I/O overhead off the hot path;
this module applies the same discipline to the harness. It measures, in
real (wall-clock) time:

* ``kernel_events`` — raw event-loop dispatch: timer-hopping processes,
  reported as events/second through the kernel heap.
* ``allof_fanin`` — composite-condition fan-in (:class:`repro.sim.AllOf`
  over wide process barriers, the Fig. 7 / SFS workload shape).
* ``link_frames`` — frames/second through the switch + bandwidth-pipe
  fabric path.
* ``rpc_reads`` — end-to-end 4 KB cached reads/second through a full
  DAFS cluster (client cache, RPC, NIC, link, server cache).
* ``figure_sweep`` — wall-clock for a reduced Fig. 3 sweep, serial vs
  ``--jobs N``, proving the parallel runner's speedup and verifying the
  two result sets are identical.

Every bench separates *deterministic* outputs (simulated time, event and
operation counts, result checksums — identical on every run and every
machine) from *timing* outputs (wall seconds, rates). ``--digest`` prints
only the former, so CI can diff two runs byte-for-byte; rates are also
reported normalized to a pure-Python calibration loop so a committed
baseline from one machine can gate regressions on another
(``--check BENCH_perf.json``).

Examples::

    repro-bench perf --quick
    repro-bench perf --quick --digest          # deterministic fields only
    repro-bench perf --out BENCH_perf.json     # write/refresh the baseline
    repro-bench perf --quick --check BENCH_perf.json   # CI regression gate
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import os
import platform
import pstats
import sys
import time
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..cluster import Cluster
from ..net.link import Switch
from ..net.packet import Message, MsgKind, fragment
from ..params import KB, default_params
from ..sim import Simulator
from . import figures, runner

#: Bump when bench shapes change incompatibly (invalidates --check).
SCHEMA_VERSION = 2

#: Normalized rates (rate / calibration) measured on the pre-optimization
#: kernel with full shapes, before the trampoline pool and AllOf counter
#: fast paths landed. Embedded in every suite document so BENCH_perf.json
#: always carries the before/after trajectory. The
#: figure-sweep speedup below is from a single-CPU container, where
#: ``--jobs`` cannot beat serial; it scales with available cores.
SEED_KERNEL_REFERENCE = {
    "kernel_events": 0.023419,
    "allof_fanin": 0.005942,
    "link_frames": 0.002447,
    "rpc_reads": 0.000103,
    "figure_sweep": 0.993163,
}

#: (full, quick) sizing per bench.
KERNEL_PROCS = (64, 32)
KERNEL_HOPS = (600, 200)
ALLOF_FANIN = (64, 32)
ALLOF_ROUNDS = (60, 20)
LINK_MESSAGES = (400, 150)
LINK_MSG_BYTES = 16 * KB
RPC_BLOCKS = (192, 64)
SWEEP_BLOCKS = (192, 64)
SWEEP_BLOCK_SIZES_KB = (4, 16, 64, 256)


def _checksum(obj: Any) -> str:
    """Stable digest of any JSON-serializable result object."""
    canon = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def calibrate(loops: int = 5, n: int = 200_000) -> float:
    """Machine speed reference: pure-Python ops/second.

    Normalizing bench rates by this figure makes the committed baseline
    meaningful across machines of different speeds — a 2x slower CI
    runner scores ~2x lower on both the benches and the calibration, so
    the normalized ratio holds.
    """
    best = float("inf")
    for _ in range(loops):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i & 7
        best = min(best, time.perf_counter() - t0)
    return n / best


# ---------------------------------------------------------------------------
# Kernel microbenchmarks
# ---------------------------------------------------------------------------

def bench_kernel_events(quick: bool = False) -> Dict[str, Any]:
    """Timer-hopping processes: pure event-loop dispatch throughput."""
    procs = KERNEL_PROCS[quick]
    hops = KERNEL_HOPS[quick]
    sim = Simulator()

    def hopper():
        for _ in range(hops):
            yield sim.timeout(1.0)

    for _ in range(procs):
        sim.process(hopper())
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": sim._seq, "sim_us": sim.now,
            "events_per_s": sim._seq / wall}


def bench_allof_fanin(quick: bool = False) -> Dict[str, Any]:
    """Wide AllOf barriers over short-lived worker processes."""
    fanin = ALLOF_FANIN[quick]
    rounds = ALLOF_ROUNDS[quick]
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)

    def main():
        for _ in range(rounds):
            yield sim.all_of([sim.process(worker())
                              for _ in range(fanin)])

    t0 = time.perf_counter()
    sim.run_process(main())
    wall = time.perf_counter() - t0
    triggers = fanin * rounds
    return {"wall_s": wall, "events": sim._seq, "sim_us": sim.now,
            "child_triggers": triggers,
            "triggers_per_s": triggers / wall}


# ---------------------------------------------------------------------------
# Fabric and end-to-end benchmarks
# ---------------------------------------------------------------------------

def bench_link_frames(quick: bool = False) -> Dict[str, Any]:
    """Fragmented messages through the switch's forwarding path."""
    messages = LINK_MESSAGES[quick]
    params = default_params()
    sim = Simulator()
    switch = Switch(sim, params.net)
    switch.attach("a")
    sink = switch.attach("b")
    sink.set_handler(lambda frame: None)

    def sender():
        for _ in range(messages):
            msg = Message(MsgKind.GM_SEND, "a", "b", LINK_MSG_BYTES)
            for frame in fragment(msg, params.net.gm_mtu,
                                  params.net.gm_header_bytes):
                switch.transmit("a", frame)
            yield sim.timeout(1.0)

    t0 = time.perf_counter()
    sim.run_process(sender())
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "frames": switch.frames_forwarded,
            "sim_us": sim.now,
            "frames_per_s": switch.frames_forwarded / wall}


def _read_cluster(quick: bool) -> Tuple[Cluster, Generator, int]:
    """The ``rpc_reads`` shape: a DAFS client with an 8-block cache reads
    a warm file twice in 4 KB reads. Returns (cluster, the workload's
    process body, reads)."""
    blocks = RPC_BLOCKS[quick]
    block = 4 * KB
    cluster = Cluster(default_params(), system="dafs", block_size=block,
                      server_cache_blocks=blocks + 8,
                      client_kwargs={"cache_blocks": 8})
    cluster.create_file("perf", blocks * block)
    client = cluster.clients[0]

    def workload():
        yield from client.open("perf")
        for _ in range(2):
            for i in range(blocks):
                yield from client.read("perf", i * block, block)

    return cluster, workload(), 2 * blocks


def bench_rpc_reads(quick: bool = False) -> Dict[str, Any]:
    """End-to-end 4 KB cached reads through a full DAFS cluster."""
    cluster, workload, ops = _read_cluster(quick)
    t0 = time.perf_counter()
    cluster.sim.run_process(workload)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "ops": ops, "sim_us": cluster.sim.now,
            "events": cluster.sim._seq, "ops_per_s": ops / wall}


def bench_telemetry_reads(quick: bool = False) -> Dict[str, Any]:
    """The ``rpc_reads`` shape with continuous telemetry sampling on.

    Same cluster and workload as :func:`bench_rpc_reads`, plus the full
    gauge sampler ticking at 20 us — the cost of observability on the hot
    path. Compared against ``rpc_reads`` it bounds the sampling overhead;
    the ``rpc_reads`` digest itself (run with telemetry off) proves the
    disabled path is entirely untouched.
    """
    cluster, workload, ops = _read_cluster(quick)
    proc = cluster.sim.process(workload)
    sampler = cluster.attach_sampler(interval_us=20.0)
    sampler.start(stop_on=proc)
    t0 = time.perf_counter()
    cluster.sim.run()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "ops": ops, "sim_us": cluster.sim.now,
            "events": cluster.sim._seq,
            "samples": sampler.ticks * len(sampler.series),
            "ops_per_s": ops / wall}


#: (full, quick) client counts for the scale bench.
SCALE_CLIENTS = (16, 8)


def bench_scale_smallio(quick: bool = False) -> Dict[str, Any]:
    """Many-client small-I/O reads through the admission scheduler.

    The scale-out hot path: 16 NFS clients (8 under ``--quick``) hammer
    one server through the fair-share scheduler with a bounded queue and
    a 4-thread service pool, so the engine is dominated by queueing,
    dispatch, and retransmission-after-rejection machinery rather than
    by a single client's pipeline. Tracked as simulated reads per
    wall-second, so doing the same reads in fewer kernel events reads
    as a gain, not a loss; its deterministic (ops, sim_us, events)
    triple also pins the scheduler's event stream against accidental
    change.
    """
    n_clients = SCALE_CLIENTS[quick]
    blocks = 16
    block = 4 * KB
    params = default_params()
    params.sched.policy = "fair"
    params.sched.service_threads = 4
    params.sched.max_queue = 8
    cluster = Cluster(params, system="nfs", block_size=block,
                      n_clients=n_clients,
                      server_cache_blocks=blocks + 8,
                      client_kwargs={"bcache_entries": 2})
    cluster.create_file("perf", blocks * block)

    def client_main(idx):
        client = cluster.clients[idx]
        yield from client.open("perf")
        for _ in range(2):
            for i in range(blocks):
                yield from client.read("perf", i * block, block)

    def workload():
        procs = [cluster.sim.process(client_main(i), name=f"perf{i}")
                 for i in range(n_clients)]
        yield cluster.sim.all_of(procs)

    t0 = time.perf_counter()
    cluster.sim.run_process(workload())
    wall = time.perf_counter() - t0
    events = cluster.sim._seq
    ops = 2 * blocks * n_clients
    return {"wall_s": wall, "ops": ops, "sim_us": cluster.sim.now,
            "events": events, "clients": n_clients,
            "rejected": cluster.scheduler.stats.get("rejected"),
            "ops_per_s": ops / wall}


def bench_figure_sweep(quick: bool = False,
                       jobs: int = 4) -> Dict[str, Any]:
    """A reduced Fig. 3 sweep: serial wall vs ``jobs``-way parallel wall.

    The two result dicts must be identical — the speedup is pure
    orchestration, not a change in what is simulated.
    """
    blocks = SWEEP_BLOCKS[quick]
    kwargs = dict(blocks_per_point=blocks,
                  block_sizes_kb=SWEEP_BLOCK_SIZES_KB)
    t0 = time.perf_counter()
    serial = figures.fig3_fig4(jobs=1, **kwargs)
    serial_s = time.perf_counter() - t0
    # Campaign CLIs fork the pool once and reuse it across sub-grids;
    # pre-warming here measures that steady state instead of charging
    # pool construction to the one timed grid.
    runner.warm_pool(jobs, default_params())
    t0 = time.perf_counter()
    parallel = figures.fig3_fig4(jobs=jobs, **kwargs)
    parallel_s = time.perf_counter() - t0
    return {"serial_s": serial_s, "parallel_s": parallel_s, "jobs": jobs,
            "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
            "identical": serial == parallel,
            "checksum": _checksum(serial)}


#: bench name -> (function, rate key). The rate key is the figure the
#: regression gate tracks (normalized by the calibration loop).
BENCHES = {
    "kernel_events": (bench_kernel_events, "events_per_s"),
    "allof_fanin": (bench_allof_fanin, "triggers_per_s"),
    "link_frames": (bench_link_frames, "frames_per_s"),
    "rpc_reads": (bench_rpc_reads, "ops_per_s"),
}

#: Benches newer than the seed-kernel reference (the telemetry sampler
#: and the admission scheduler came later), so kept out of ``BENCHES``.
LATER_BENCHES = {
    "telemetry_reads": (bench_telemetry_reads, "ops_per_s"),
    "scale_smallio": (bench_scale_smallio, "ops_per_s"),
}

#: Deterministic (machine-independent) fields per bench, for --digest.
DIGEST_FIELDS = ("events", "sim_us", "child_triggers", "frames", "ops",
                 "samples", "identical", "checksum", "jobs", "clients",
                 "rejected")


def run_suite(quick: bool = False, jobs: int = 4, repeat: int = 3,
              sweep: bool = True) -> Dict[str, Any]:
    """Run every bench; returns the BENCH_perf.json document."""
    calib = calibrate()
    benches: Dict[str, Any] = {}
    for name, (fn, rate_key) in {**BENCHES, **LATER_BENCHES}.items():
        best = min((fn(quick) for _ in range(max(1, repeat))),
                   key=lambda result: result["wall_s"])
        best["rate_key"] = rate_key
        best["normalized"] = best[rate_key] / calib
        benches[name] = best
    if sweep:
        result = bench_figure_sweep(quick, jobs=jobs)
        # Normalized *cost* (lower is better): serial wall scaled by
        # machine speed, so the gate is meaningful across machines.
        result["rate_key"] = "speedup"
        result["normalized"] = result["speedup"]
        benches["figure_sweep"] = result
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "calibration_ops_per_s": calib,
        # Informational only (not part of the digest or the gate): the
        # figure-sweep speedup is bounded by the host's core count.
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "platform": sys.platform},
        "reference_seed_kernel": SEED_KERNEL_REFERENCE,
        "benches": benches,
    }


def digest(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The machine-independent projection of a suite document."""
    out: Dict[str, Any] = {"schema": doc["schema"], "quick": doc["quick"]}
    for name, bench in doc["benches"].items():
        out[name] = {k: bench[k] for k in DIGEST_FIELDS if k in bench}
    return out


#: Benches whose tolerance is capped tighter than ``--tolerance``: the
#: event-loop and the many-client scheduler path are the two rates every
#: figure rides on, so they may never drift more than 20% below baseline
#: even when the blanket tolerance is looser.
STRICT_TOLERANCE = {"kernel_events": 0.20, "scale_smallio": 0.20}


def check_regression(doc: Dict[str, Any], baseline: Dict[str, Any],
                     tolerance: float = 0.25) -> List[str]:
    """Compare normalized rates against a committed baseline.

    Returns a list of human-readable failures (empty = pass). A bench
    regresses when its normalized rate drops more than ``tolerance``
    below the baseline's (capped per-bench by :data:`STRICT_TOLERANCE`).
    Benches present in only one document are skipped (the suite may
    grow).
    """
    problems = []
    if baseline.get("schema") != doc["schema"]:
        return [f"baseline schema {baseline.get('schema')} != "
                f"{doc['schema']}; refresh BENCH_perf.json"]
    base_benches = baseline.get("benches", {})
    for name, bench in doc["benches"].items():
        base = base_benches.get(name)
        if base is None or "normalized" not in base:
            continue
        tol = min(tolerance, STRICT_TOLERANCE.get(name, tolerance))
        floor = base["normalized"] * (1.0 - tol)
        if bench["normalized"] < floor:
            problems.append(
                f"{name}: normalized {bench['normalized']:.4f} < "
                f"{floor:.4f} (baseline {base['normalized']:.4f} "
                f"- {tol:.0%})")
        if name == "figure_sweep" and not bench.get("identical", True):
            problems.append("figure_sweep: serial and parallel results "
                            "differ — determinism broken")
    return problems


def check_speedup(doc: Dict[str, Any], minimum: float) -> Optional[str]:
    """Gate the figure-sweep speedup; None = pass (or not applicable).

    On hosts that cannot possibly show a parallel win (fewer than two
    cores, so the pool time-slices one CPU) the gate reports a skip
    notice instead of failing — the CI runners that enforce it are
    multi-core.
    """
    sweep = doc["benches"].get("figure_sweep")
    if sweep is None:
        return None
    cores = doc.get("host", {}).get("cpu_count") or os.cpu_count() or 1
    if cores < 2:
        print(f"speedup gate skipped: host has {cores} CPU "
              f"(parallel speedup needs >= 2 cores)", file=sys.stderr)
        return None
    if sweep["speedup"] < minimum:
        return (f"figure_sweep: speedup {sweep['speedup']:.2f}x at "
                f"{sweep['jobs']} jobs < required {minimum:.2f}x")
    return None


def profile_suite(quick: bool = False, top: int = 15) -> str:
    """cProfile every in-process bench; top-``top`` by cumulative time.

    The figure sweep is excluded: its cost is multiprocess orchestration
    that a parent-side profile cannot see. One run per bench (profiling
    overhead would poison a best-of-N comparison anyway).
    """
    sections = []
    for name, (fn, _rate_key) in {**BENCHES, **LATER_BENCHES}.items():
        profiler = cProfile.Profile()
        profiler.enable()
        fn(quick)
        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(top)
        sections.append(f"=== {name} (top {top} by cumulative) ===\n"
                        f"{buf.getvalue().rstrip()}")
    return "\n\n".join(sections)


def render(doc: Dict[str, Any]) -> str:
    """Human-readable table for a perf-suite result document."""
    lines = [f"Engine microbenchmarks "
             f"({'quick' if doc['quick'] else 'full'} shapes; "
             f"calibration {doc['calibration_ops_per_s'] / 1e6:.1f} "
             f"Mops/s)"]
    lines.append(f"  {'bench':<18} {'rate':>14} {'normalized':>11} "
                 f"{'vs seed':>8} {'wall s':>8}  deterministic")
    ref = doc.get("reference_seed_kernel", {})
    for name, bench in doc["benches"].items():
        rate_key = bench["rate_key"]
        det = {k: bench[k] for k in DIGEST_FIELDS if k in bench}
        if name == "figure_sweep":
            rate = (f"{bench['speedup']:.2f}x/" f"{bench['jobs']}j")
            wall = bench["serial_s"] + bench["parallel_s"]
        else:
            rate = f"{bench[rate_key]:,.0f}/s"
            wall = bench["wall_s"]
        gain = (f"{bench['normalized'] / ref[name] - 1:+8.0%}"
                if ref.get(name) else f"{'—':>8}")
        lines.append(f"  {name:<18} {rate:>14} "
                     f"{bench['normalized']:>11.4f} {gain} "
                     f"{wall:>8.2f}  {det}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point for ``repro-bench perf``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench perf",
        description="Benchmark the simulation engine: event-loop "
                    "dispatch, fan-in, fabric, end-to-end RPC, and the "
                    "parallel campaign runner's figure-sweep speedup.")
    parser.add_argument("--quick", action="store_true",
                        help="smaller bench shapes (CI-sized)")
    parser.add_argument("--jobs", type=runner.positive_int, default=4,
                        help="pool size for the figure-sweep comparison "
                             "(default 4)")
    parser.add_argument("--repeat", type=runner.positive_int, default=3,
                        help="runs per microbench; best wall time wins "
                             "(default 3)")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the figure-sweep serial-vs-parallel "
                             "comparison (microbenches only)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full suite document as JSON")
    parser.add_argument("--digest", action="store_true",
                        help="emit only the deterministic fields (for "
                             "byte-for-byte CI diffs)")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the suite document to PATH "
                             "(the tracked BENCH_perf.json)")
    parser.add_argument("--check", metavar="PATH",
                        help="compare against a baseline document; "
                             "nonzero exit on regression")
    parser.add_argument("--tolerance", type=runner.probability,
                        default=0.25,
                        help="allowed normalized-rate drop vs the "
                             "baseline (default 0.25; kernel_events and "
                             "scale_smallio are capped at 0.20)")
    parser.add_argument("--min-speedup", type=runner.positive_float,
                        default=None, metavar="X",
                        help="fail unless the figure-sweep speedup "
                             "reaches X (skipped with a notice on "
                             "single-core hosts)")
    parser.add_argument("--profile", type=runner.positive_int, nargs="?",
                        const=15, default=None, metavar="N",
                        help="cProfile each bench and print the top N "
                             "functions by cumulative time (default 15); "
                             "skips the suite's timing comparison")
    args = parser.parse_args(argv)

    if args.profile is not None:
        print(profile_suite(quick=args.quick, top=args.profile))
        return 0

    doc = run_suite(quick=args.quick, jobs=args.jobs, repeat=args.repeat,
                    sweep=not args.no_sweep)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.digest:
        print(json.dumps(digest(doc), indent=2, sort_keys=True))
    elif args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render(doc))

    sweep = doc["benches"].get("figure_sweep")
    if sweep is not None and not sweep["identical"]:
        print("FAILED: parallel figure sweep diverged from serial run",
              file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        problem = check_speedup(doc, args.min_speedup)
        if problem is not None:
            print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 1
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        problems = check_regression(doc, baseline,
                                    tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"perf check vs {args.check}: ok "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
