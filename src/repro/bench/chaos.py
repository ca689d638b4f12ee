"""``repro-bench chaos`` — degradation campaigns under injected faults.

For each (system, fault class, fault rate) point the campaign wires a
fresh cluster, attaches a :class:`repro.faults.Injector` with the
resilience layer enabled (RPC timeout/retransmit, RDMA recovery
timeouts), injects one fault class at the given per-event rate, and runs
a small cached-read workload. The report is throughput and p95/p99
response time versus fault rate, per client variant — the graceful-
degradation counterpart to the paper's benign-case Figs. 3-5/Table 3 —
plus, for ODAFS, the fraction of fills that fell back from ORDMA to RPC.

Every point is a pure function of the master seed: all fault decisions
come from named ``RandomStreams``, so two campaigns with the same
``--seed`` emit byte-identical JSON (the CI campaign-smoke job diffs them).

Examples::

    repro-bench chaos --quick --seed 7
    repro-bench chaos --systems odafs dafs --classes link disk
    repro-bench chaos --quick --json > chaos.json
    repro-bench chaos --quick --dump /tmp/chaos.jsonl   # + traced point
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Generator, Optional, Sequence, Tuple

from ..cluster import SYSTEMS, Cluster
from ..faults import Injector
from ..hw.tpt import RemoteAccessFault
from ..integrity import IntegrityError, is_corrupt
from ..params import KB, Params, default_params
from ..proto.rpc import RPCError
from ..sim import LatencyStats, Tracer
from .figures import dafs_cache_kwargs
from .plot import ascii_chart
from .runner import add_campaign_args, campaign_json, positive_int, \
    probability, run_grid, seeded_params
from .runner import base_params as runner_base_params

#: One injectable failure domain per campaign axis.
FAULT_CLASSES = ("link", "nic", "disk", "server")

#: Per-event fault probabilities swept by the campaign.
DEFAULT_RATES = (0.0, 0.005, 0.01, 0.02, 0.05)
QUICK_RATES = (0.0, 0.01, 0.05)

#: Fixed magnitudes for the non-probability knobs.
NIC_STALL_US = 200.0
DISK_SPIKE_US = 2000.0
CRASH_DOWNTIME_US = 1500.0


def add_fault_campaign_args(parser: argparse.ArgumentParser,
                            seed_help: str, quick_help: str) -> None:
    """CLI surface shared by the fault-injection campaigns (``chaos``,
    ``scrub``): the workload-size knobs plus the ``--seed/--jobs/--json``
    trio. Both subcommands route through here so each shared option is
    registered exactly once per parser — duplicating ``--seed`` in a
    subcommand would crash argparse and double it in ``--help``.
    """
    parser.add_argument("--blocks", type=positive_int, default=None,
                        help="4 KB blocks per pass (default 64, 24 with "
                             "--quick)")
    parser.add_argument("--passes", type=positive_int, default=2,
                        help="read passes over the file (default 2)")
    parser.add_argument("--quick", action="store_true", help=quick_help)
    add_campaign_args(parser, seed_help=seed_help)


class WarmScan:
    """Client 0 reads a warm file's 4 KB blocks in order, ``passes``
    times over. A read that fails with a typed error (RPC, remote access
    or integrity) is counted, not raised; the scan also counts corrupt
    payloads and meters the latency of the reads that succeeded."""

    def __init__(self, cluster: Cluster, name: str, blocks: int,
                 passes: int):
        self.cluster, self.name = cluster, name
        self.blocks, self.passes = blocks, passes
        self.ok = self.failed = self.corrupt = 0
        self.meter = LatencyStats("op_us")

    def reads(self) -> Generator:
        """The scan, as a simulation process body."""
        client, sim = self.cluster.clients[0], self.cluster.sim
        block = 4 * KB
        yield from client.open(self.name)
        for _ in range(self.passes):
            for i in range(self.blocks):
                start = sim.now
                try:
                    data = yield from client.read(self.name, i * block,
                                                  block)
                except (IntegrityError, RPCError, RemoteAccessFault):
                    self.failed += 1
                else:
                    self.ok += 1
                    self.meter.record(sim.now - start)
                    if is_corrupt(data):
                        self.corrupt += 1


def _configure(inj: Injector, fault_class: str, rate: float) -> None:
    """Point one fault class at the cluster at per-event rate ``rate``."""
    if fault_class not in FAULT_CLASSES:
        raise ValueError(f"unknown fault class {fault_class!r}; "
                         f"one of {FAULT_CLASSES}")
    if rate <= 0.0:
        return
    if fault_class == "link":
        inj.link_loss(rate)
    elif fault_class == "nic":
        inj.nic_doorbell_stalls(rate, stall_us=NIC_STALL_US)
        inj.ordma_rejects(rate)
    elif fault_class == "disk":
        inj.disk_errors(rate)
        inj.disk_delays(rate, spike_us=DISK_SPIKE_US)
    else:  # server
        inj.server_crashes(rate, downtime_us=CRASH_DOWNTIME_US)


def run_point(system: str, fault_class: str, rate: float,
              params: Optional[Params] = None, blocks: int = 64,
              passes: int = 2,
              trace: bool = False) -> Tuple[Dict[str, Any],
                                            Optional[Tracer]]:
    """One campaign point; returns (metrics dict, tracer if requested).

    The workload reads a warm file twice through a small client cache
    (the Table 3 shape). For the disk class the server cache is sized
    below the file so the scan thrashes it and the disk path is actually
    exercised. Per-op failures (EIO after the server's retries) are
    counted, not fatal; only a hang/deadlock marks the point incomplete.
    Any other error escapes the scan, and nothing waits on the scan, so
    it propagates out of ``sim.run()`` with its own type.
    """
    block = 4 * KB
    p = params.copy() if params is not None else default_params()
    # LRU + sequential scan: a cache at half the file size misses every
    # access, which is exactly what the disk fault class needs.
    cache_blocks = max(8, blocks // 2) if fault_class == "disk" \
        else blocks + 8
    cluster = Cluster(p, system=system, block_size=block,
                      server_cache_blocks=cache_blocks,
                      client_kwargs=dafs_cache_kwargs(system, 8))
    cluster.create_file("chaos", blocks * block)
    tracer = Tracer.attach(cluster.sim) if trace else None
    inj = Injector(cluster)
    inj.enable_resilience()
    _configure(inj, fault_class, rate)
    inj.arm()
    scan = WarmScan(cluster, "chaos", blocks, passes)
    proc = cluster.sim.process(scan.reads())
    cluster.sim.run()
    # An unfinished scan hung on a lost event: exactly what the
    # resilience layer exists to prevent, so it is reported, not raised.
    completed = proc.triggered

    elapsed = cluster.sim.now
    client = cluster.clients[0]
    meter = scan.meter
    rpc = client.rpc.stats
    point: Dict[str, Any] = {
        "completed": completed,
        "ops_ok": scan.ok,
        "ops_failed": scan.failed,
        "sim_us": round(elapsed, 2),
        "throughput_mb_s": (round(scan.ok * block / elapsed, 3)
                            if elapsed > 0 else 0.0),
        "p50_us": round(meter.percentile(50), 2) if meter.count else 0.0,
        "p95_us": round(meter.percentile(95), 2) if meter.count else 0.0,
        "p99_us": round(meter.percentile(99), 2) if meter.count else 0.0,
        "retransmits": rpc.get("retransmits"),
        "rpc_timeouts": rpc.get("rpc_timeouts"),
        "faults_injected": sum(inj.stats.as_dict().values()),
        "server_crashes": cluster.server.rpc.stats.get("crashes"),
    }
    if system == "odafs":
        rpc_fills = client.stats.get("rpc_fills")
        ordma_reads = client.stats.get("ordma_reads")
        fills = rpc_fills + ordma_reads
        point["ordma_faults"] = client.stats.get("ordma_faults")
        point["rpc_fallback_frac"] = (round(rpc_fills / fills, 4)
                                      if fills else 0.0)
    return point, tracer


def _campaign_point(spec) -> Dict[str, Any]:
    """One grid point, shaped for :func:`repro.bench.runner.run_points`."""
    system, fault_class, rate, blocks, passes = spec
    point, _ = run_point(system, fault_class, rate,
                         params=runner_base_params(),
                         blocks=blocks, passes=passes)
    return point


def chaos_campaign(params: Optional[Params] = None,
                   systems: Sequence[str] = SYSTEMS,
                   fault_classes: Sequence[str] = FAULT_CLASSES,
                   rates: Sequence[float] = DEFAULT_RATES,
                   blocks: int = 64,
                   passes: int = 2,
                   jobs: Optional[int] = None) -> Dict[str, Any]:
    """{system: {fault_class: {"%.4f" % rate: point}}} over the grid.

    Every point builds its own cluster and injector from ``params``, with
    all randomness drawn from seed-derived named streams, so the grid can
    fan out over ``jobs`` worker processes and still return exactly the
    serial campaign's output (the CI campaign-smoke job relies on this).
    """
    for system in systems:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; one of {SYSTEMS}")
    base = params if params is not None else default_params()
    specs = [(system, fault_class, rate, blocks, passes)
             for system in systems
             for fault_class in fault_classes
             for rate in rates]
    return run_grid(_campaign_point, specs,
                    lambda s: (s[0], s[1], f"{s[2]:.4f}"), jobs=jobs,
                    base=base, cost=lambda s: s[2])  # fault rate ~ retries


def campaign_failures(results: Dict[str, Any]) -> int:
    """Points that hung or finished without a single successful op."""
    bad = 0
    for per_class in results.values():
        for series in per_class.values():
            for point in series.values():
                if not point["completed"] or point["ops_ok"] == 0:
                    bad += 1
    return bad


def render_campaign(results: Dict[str, Any]) -> str:
    """Per-fault-class degradation tables and throughput curves."""
    lines = []
    classes = []
    for per_class in results.values():
        for fault_class in per_class:
            if fault_class not in classes:
                classes.append(fault_class)
    for fault_class in classes:
        lines.append(f"== fault class: {fault_class} "
                     f"(x axis: faults per 1000 events) ==")
        header = f"  {'system':<12} {'rate':>7} {'MB/s':>8} " \
                 f"{'p95 us':>9} {'p99 us':>9} {'rexmit':>7} " \
                 f"{'failed':>7} {'fallback':>9}"
        lines.append(header)
        curves: Dict[str, Dict[int, float]] = {}
        for system, per_class in results.items():
            series = per_class.get(fault_class)
            if series is None:
                continue
            for rate_key, point in series.items():
                permille = int(round(float(rate_key) * 1000))
                curves.setdefault(system, {})[permille] = \
                    point["throughput_mb_s"]
                fallback = point.get("rpc_fallback_frac")
                lines.append(
                    f"  {system:<12} {rate_key:>7} "
                    f"{point['throughput_mb_s']:>8.2f} "
                    f"{point['p95_us']:>9.1f} {point['p99_us']:>9.1f} "
                    f"{point['retransmits']:>7} "
                    f"{point['ops_failed']:>7} "
                    + (f"{fallback:>9.3f}" if fallback is not None
                       else f"{'-':>9}")
                    + ("" if point["completed"] else "  [INCOMPLETE]"))
        lines.append("")
        lines.append(ascii_chart(curves, ylabel="MB/s",
                                 xlabel=f"{fault_class} faults/1000"))
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point for ``repro-bench chaos``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench chaos",
        description="Run fault-injection degradation campaigns: "
                    "throughput and tail latency vs fault rate, per NAS "
                    "system and fault class.")
    parser.add_argument("--systems", nargs="+", default=list(SYSTEMS),
                        choices=SYSTEMS, metavar="SYSTEM",
                        help=f"client variants to sweep (default: all of "
                             f"{', '.join(SYSTEMS)})")
    parser.add_argument("--classes", nargs="+", dest="fault_classes",
                        default=list(FAULT_CLASSES), choices=FAULT_CLASSES,
                        metavar="CLASS",
                        help="fault classes to sweep (default: all)")
    parser.add_argument("--rates", nargs="+", type=probability, default=None,
                        metavar="P",
                        help="per-event fault probabilities "
                             f"(default: {DEFAULT_RATES})")
    add_fault_campaign_args(
        parser, seed_help="master seed for all fault/jitter streams",
        quick_help="smaller defaults (24 blocks, 3 rates); explicit "
                   "options still win")
    parser.add_argument("--dump", metavar="PATH",
                        help="also run one traced point (first system/"
                             "class, highest rate) and dump its trace "
                             "as JSONL for 'repro-bench trace --input'")
    args = parser.parse_args(argv)

    params = seeded_params(args.seed)
    rates = tuple(args.rates) if args.rates else \
        (QUICK_RATES if args.quick else DEFAULT_RATES)
    blocks = args.blocks or (24 if args.quick else 64)

    results = chaos_campaign(params=params, systems=args.systems,
                             fault_classes=args.fault_classes,
                             rates=rates, blocks=blocks,
                             passes=args.passes, jobs=args.jobs)
    failures = campaign_failures(results)

    if args.dump:
        _, tracer = run_point(args.systems[0], args.fault_classes[0],
                              max(rates), params=params, blocks=blocks,
                              passes=args.passes, trace=True)
        tracer.dump_jsonl(args.dump)

    if args.json:
        print(campaign_json(results, seed=params.seed, rates=list(rates),
                            blocks=blocks, passes=args.passes))
    else:
        print(f"Chaos campaign — seed {params.seed}, {blocks}x4KB blocks "
              f"x{args.passes} passes per point")
        print()
        print(render_campaign(results))
        if failures:
            print(f"FAILED: {failures} campaign point(s) hung or served "
                  f"no requests")
        else:
            print("All campaign points completed.")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
