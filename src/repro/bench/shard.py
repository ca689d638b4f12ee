"""``repro-bench shard`` — scale-out sweep over sharded multi-server NAS.

The paper's testbed stops at one server. This campaign asks the natural
scale-out question: when files are striped over N servers and clients
route block-ranges directly (``repro.nas.shard``), how does aggregate
small-I/O throughput grow 1 -> 4 servers per system?

The qualitative result to reproduce: ODAFS scales near-linearly — the
measured pass runs over client-initiated ORDMA, so adding servers adds
NIC/link capacity with no CPU in the data path on either side — while
NFS scales sublinearly: relieving the saturated server CPU just exposes
the client's per-byte copy cost (Table 1), which no amount of servers
removes.

Two workload mixes, mirroring ``repro-bench scale``:

* ``smallio`` — every client streams the same warm striped file in wide
  application reads (each read fans out across shards) through a small
  client cache;
* ``postmark`` — every client runs read-only open/read/close
  transactions over a shared small-file set whose files spread across
  shards by placement hash.

The campaign ends with a crash-failover point: ``replicas=1``, one
server crashed mid-run, verifying the run *completes* (reads fail over
to the replica; the ORDMA directory entries for the dead shard fault
and fall back to RPC, which times out and reroutes) instead of hanging.

Every point is a pure function of ``(master seed, point spec)``; two
same-seed campaigns emit byte-identical JSON for any ``--jobs`` count
(the CI campaign-smoke job diffs them).

Examples::

    repro-bench shard --quick --seed 7
    repro-bench shard --systems nfs odafs --servers 1 2 4 --jobs 4
    repro-bench shard --quick --json > shard.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Generator, List, Optional, Sequence

from ..cluster import SHARD_SYSTEMS, Cluster
from ..faults import FaultSchedule, Injector
from ..hw.tpt import RemoteAccessFault
from ..nas.shard import ShardDownError
from ..nas.shard.placement import shard_config_error
from ..params import KB, Params, default_params
from ..proto.rpc import RPCError
from .plot import ascii_chart
from .runner import add_campaign_args, campaign_json, positive_int, \
    run_grid, seeded_params
from .runner import base_params as runner_base_params
from .scale import MIXES, ClientCacheHitError, run_point

#: Server counts, default and --quick grids.
DEFAULT_SERVERS = (1, 2, 4)
QUICK_SERVERS = (1, 2)

#: Systems compared by default (the scale-out story's two poles).
DEFAULT_SYSTEMS = ("nfs", "odafs")

#: 4 KB: the paper's small-I/O unit; application reads span 8 of them
#: so a single read fans out across shards.
BLOCK = 4 * KB
APP_BLOCK = 64 * KB

#: Failover point: when (us) the crashed shard goes down, and for how
#: long (longer than the run, so recovery is routing, not waiting), and
#: the block reads its one client issues, 100 us apart.
CRASH_AT_US = 3000.0
CRASH_DOWNTIME_US = 1_000_000.0
FAILOVER_READS = 150


#: Stripe unit in blocks: an ``APP_BLOCK`` read splits into contiguous
#: 16 KB per-shard segments instead of eight single-block RPCs.
STRIPE_BLOCKS = 4


def _shard_params(params: Optional[Params], n_servers: int,
                  placement: str, replicas: int = 0) -> Params:
    """A params copy with the shard layer configured for one point."""
    p = (params or default_params()).copy()
    p.shard.n_servers = n_servers
    p.shard.placement = placement
    p.shard.stripe_blocks = STRIPE_BLOCKS
    p.shard.replicas = replicas
    return p


def _client_kwargs(system: str, width: int = APP_BLOCK // BLOCK
                   ) -> Dict[str, Any]:
    """Client caches sized so the measured pass always misses locally.

    The DAFS/ODAFS cache is block-granular — it must hold one read's
    ``width``-block fan-out but stay below every shard's slice of the
    working set. The NFS buffer cache is *request*-granular, so two
    entries under a scan of four or more distinct requests guarantee
    misses.
    """
    if system in ("dafs", "odafs"):
        return {"cache_blocks": width + 4}
    return {"bcache_entries": 2}


def _shard_fields(cluster: Cluster) -> Dict[str, Any]:
    """Per-server and client CPU, and how the routers split reads."""
    if cluster.n_servers == 1:
        # Plain clients: every read is one segment and none fans out.
        routed = sum(c.stats.get("reads") for c in cluster.clients)
        fanout = 0
    else:
        routed = sum(r.stats.get("routed_segments") for r in cluster.clients)
        fanout = sum(r.stats.get("fanout_reads") for r in cluster.clients)
    return {
        "server_cpus": [round(u, 4)
                        for u in cluster.server_cpu_utilizations()],
        "client_cpu": round(cluster.client_cpu_utilization(0), 4),
        "routed_segments": routed,
        "fanout_reads": fanout,
    }


def _shard_point(spec, params: Optional[Params] = None) -> Dict[str, Any]:
    """One grid point, shaped for :func:`repro.bench.runner.run_points`:
    ``params`` (default: the campaign's base) with the shard layer
    configured; smallio reads are ``APP_BLOCK`` wide."""
    (mix, system, n_servers, placement, n_clients, blocks,
     n_files, transactions) = spec
    width = APP_BLOCK // BLOCK if mix == "smallio" else 1
    return run_point(
        _shard_params(params or runner_base_params(), n_servers, placement),
        mix, system, n_clients, _client_kwargs(system, width), APP_BLOCK,
        "shard", _shard_fields, blocks, n_files, transactions)


def run_failover_point(system: str = "odafs", n_servers: int = 4,
                       params: Optional[Params] = None,
                       placement: str = "stripe",
                       blocks: int = 64) -> Dict[str, Any]:
    """Crash one shard mid-run with a replica configured and verify the
    workload completes over failover instead of hanging.

    For ODAFS this exercises the full recovery chain: the dead shard's
    cached ORDMA references fault, the client falls back to RPC, the RPC
    times out, and the router reroutes the segment to the replica.
    """
    p = _shard_params(params, n_servers, placement, replicas=1)
    cluster = Cluster(p, system=system, n_clients=1, block_size=BLOCK,
                      server_cache_blocks=blocks + 8,
                      client_kwargs=_client_kwargs(system))
    cluster.create_file("fo", blocks * BLOCK)
    inj = Injector(cluster)
    inj.enable_resilience(timeout_us=2000.0, max_retries=2)
    inj.schedule_server_crash(FaultSchedule.at([CRASH_AT_US]),
                              downtime_us=CRASH_DOWNTIME_US)
    inj.arm()
    router = cluster.clients[0]
    state = {"ok": 0, "failed": 0}

    def workload() -> Generator:
        yield from router.open("fo")
        for i in range(FAILOVER_READS):
            try:
                yield from router.read("fo", (i % blocks) * BLOCK, BLOCK)
            except ShardDownError:
                state["failed"] += 1
            else:
                state["ok"] += 1
            yield cluster.sim.timeout(100.0)

    completed = True
    try:
        cluster.sim.run_process(workload())
    except (ShardDownError, RPCError, RemoteAccessFault):
        # Recovery gave up with a typed error; anything else is a bug.
        completed = False
    stats = router.stats
    return {
        "completed": completed,
        "ops_ok": state["ok"],
        "ops_failed": state["failed"],
        "server_crashes": inj.stats.get("server.crash"),
        "cache_blocks_lost": inj.stats.get("server.cache_blocks_lost"),
        "failovers": stats.get("failovers"),
        "replica_reads": stats.get("replica_reads"),
        "down_marks": stats.get("down_marks"),
        "sim_us": round(cluster.sim.now, 2),
    }


def scaling_summary(series: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Per-system speedups over the 1-server baseline.

    The scale-out claim reads off this: ODAFS's speedup at the largest
    count approaches the server count (near-linear) while NFS's falls
    well short (client copy CPU binds).
    """
    summary: Dict[str, Any] = {}
    for system, points in series.items():
        counts = sorted(points, key=int)
        base = points[counts[0]]["throughput_mb_s"]
        summary[system] = {
            "speedup": {n: (round(points[n]["throughput_mb_s"] / base, 4)
                            if base > 0 else 0.0)
                        for n in counts},
            "peak_mb_s": max(p["throughput_mb_s"]
                             for p in points.values()),
        }
    return summary


def shard_campaign(params: Optional[Params] = None,
                   systems: Sequence[str] = DEFAULT_SYSTEMS,
                   mixes: Sequence[str] = MIXES,
                   server_counts: Sequence[int] = DEFAULT_SERVERS,
                   placement: str = "stripe", n_clients: int = 8,
                   blocks: int = 64, n_files: int = 32,
                   transactions: int = 48, failover: bool = True,
                   jobs: Optional[int] = None) -> Dict[str, Any]:
    """{mix: {system: {str(n): point}, "summary": ...}, "failover": ...}.

    Points share no mutable state (each builds its own sharded cluster
    from the seed), so the grid fans out over ``jobs`` workers with
    results byte-identical to a serial run.
    """
    for system in systems:
        if system not in SHARD_SYSTEMS:
            raise ValueError(f"unknown system {system!r}; "
                             f"one of {SHARD_SYSTEMS}")
    for mix in mixes:
        if mix not in MIXES:
            raise ValueError(f"unknown mix {mix!r}; one of {MIXES}")
    base = params if params is not None else default_params()
    specs = [(mix, system, n, placement, n_clients, blocks,
              n_files, transactions)
             for mix in mixes
             for system in systems
             for n in server_counts]
    results = run_grid(_shard_point, specs,
                       lambda s: (s[0], s[1], str(s[2])), jobs=jobs,
                       base=base, cost=lambda s: s[2])  # server count
    for mix in results:
        results[mix]["summary"] = scaling_summary(
            {s: pts for s, pts in results[mix].items() if s != "summary"})
    if failover:
        fo_system = "odafs" if "odafs" in systems else systems[0]
        results["failover"] = run_failover_point(
            fo_system, n_servers=max(server_counts), params=params,
            placement=placement, blocks=blocks)
    return results


def render_campaign(results: Dict[str, Any]) -> str:
    """Per-mix scale-out tables plus throughput-vs-servers curves."""
    lines: List[str] = []
    for mix, per_system in results.items():
        if mix == "failover":
            continue
        lines.append(f"== mix: {mix} (x axis: servers) ==")
        lines.append(f"  {'system':<8} {'n':>4} {'MB/s':>8} {'ops/s':>10} "
                     f"{'p50 us':>9} {'p95 us':>9} {'srv cpu':>8} "
                     f"{'cli cpu':>8} {'fanout':>7}")
        tput: Dict[str, Dict[int, float]] = {}
        for system, points in per_system.items():
            if system == "summary":
                continue
            for key, point in points.items():
                n = int(key)
                tput.setdefault(system, {})[n] = point["throughput_mb_s"]
                lines.append(
                    f"  {system:<8} {n:>4} "
                    f"{point['throughput_mb_s']:>8.2f} "
                    f"{point['ops_s']:>10.1f} {point['p50_us']:>9.1f} "
                    f"{point['p95_us']:>9.1f} {point['server_cpu']:>8.3f} "
                    f"{point['client_cpu']:>8.3f} "
                    f"{point['fanout_reads']:>7}")
        lines.append("")
        lines.append(ascii_chart(tput, ylabel="MB/s", xlabel="servers"))
        summary = per_system.get("summary", {})
        for system, stats in summary.items():
            if isinstance(stats, dict):
                speedups = ", ".join(f"{n}:{s:.2f}x"
                                     for n, s in stats["speedup"].items())
                lines.append(f"  {system}: speedup {speedups}, peak "
                             f"{stats['peak_mb_s']:.1f} MB/s")
        lines.append("")
    fo = results.get("failover")
    if fo is not None:
        lines.append("== failover: one shard crashed mid-run, "
                     "replicas=1 ==")
        status = "completed" if fo["completed"] else "HUNG"
        lines.append(f"  {status}: {fo['ops_ok']} ok, "
                     f"{fo['ops_failed']} failed; "
                     f"{fo['failovers']} failover(s), "
                     f"{fo['replica_reads']} replica read(s), "
                     f"{fo['cache_blocks_lost']} cached block(s) lost")
        lines.append("")
    return "\n".join(lines)


def _app_blocks(text: str) -> int:
    """argparse ``type=`` for ``--blocks``: whole application reads."""
    blocks = positive_int(text)
    per_read = APP_BLOCK // BLOCK
    if blocks % per_read:
        raise argparse.ArgumentTypeError(
            f"must be a multiple of {per_read} (one "
            f"{APP_BLOCK // KB} KB application read), got {blocks}")
    return blocks


def main(argv=None) -> int:
    """Entry point for ``repro-bench shard``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench shard",
        description="Scale-out sweep over sharded multi-server NAS: "
                    "aggregate throughput vs server count per system, "
                    "plus a crash-failover check.")
    parser.add_argument("--systems", nargs="+", default=None,
                        choices=SHARD_SYSTEMS, metavar="SYSTEM",
                        help=f"systems to sweep (default: "
                             f"{', '.join(DEFAULT_SYSTEMS)})")
    parser.add_argument("--mixes", nargs="+", default=None,
                        choices=MIXES, metavar="MIX",
                        help="workload mixes to sweep (default: all)")
    parser.add_argument("--servers", nargs="+", type=int, default=None,
                        metavar="N",
                        help=f"server counts (default: {DEFAULT_SERVERS})")
    parser.add_argument("--placement", default="stripe",
                        choices=("stripe", "hash"),
                        help="block placement policy (default stripe)")
    parser.add_argument("--clients", type=positive_int, default=None,
                        help="client hosts per point (default 8, 4 with "
                             "--quick)")
    parser.add_argument("--blocks", type=_app_blocks, default=None,
                        help=f"4 KB blocks in the smallio file, a multiple "
                             f"of {APP_BLOCK // BLOCK}; keep each shard's "
                             f"slice bigger than the client cache (default "
                             f"128, 64 with --quick)")
    parser.add_argument("--files", type=positive_int, default=32,
                        help="PostMark file-set size (default 32)")
    parser.add_argument("--transactions", type=positive_int, default=None,
                        help="measured PostMark transactions per client "
                             "(default 48, 24 with --quick)")
    parser.add_argument("--no-failover", action="store_true",
                        help="skip the crash-failover point")
    parser.add_argument("--quick", action="store_true",
                        help="smaller defaults (1-2 servers, 4 clients, "
                             "smallio only); explicit options still win")
    add_campaign_args(parser)
    args = parser.parse_args(argv)

    params = seeded_params(args.seed)
    quick = args.quick
    systems = tuple(args.systems or DEFAULT_SYSTEMS)
    counts = tuple(args.servers or
                   (QUICK_SERVERS if quick else DEFAULT_SERVERS))
    mixes = tuple(args.mixes or (("smallio",) if quick else MIXES))
    n_clients = args.clients or (4 if quick else 8)
    blocks = args.blocks or (64 if quick else 128)
    transactions = args.transactions or (24 if quick else 48)

    # Validate every shard configuration the campaign will wire *now*,
    # so a bad combination is one clear message and exit 2 — not a
    # traceback from deep inside Cluster construction.
    for n in counts:
        err = shard_config_error(
            _shard_params(params, n, args.placement).shard, params.seed)
        if err is not None:
            print(f"repro-bench shard: invalid config for --servers {n}: "
                  f"{err}", file=sys.stderr)
            return 2
    if not args.no_failover:
        err = shard_config_error(
            _shard_params(params, max(counts), args.placement,
                          replicas=1).shard, params.seed)
        if err is not None:
            print(f"repro-bench shard: the failover point needs a replica "
                  f"({err}); pass --servers >= 2 or --no-failover",
                  file=sys.stderr)
            return 2

    try:
        results = shard_campaign(params=params, systems=systems,
                                 mixes=mixes, server_counts=counts,
                                 placement=args.placement,
                                 n_clients=n_clients, blocks=blocks,
                                 n_files=args.files,
                                 transactions=transactions,
                                 failover=not args.no_failover,
                                 jobs=args.jobs)
    except ClientCacheHitError as err:
        print(f"repro-bench shard: {err}", file=sys.stderr)
        return 2

    fo = results.get("failover")
    failed = fo is not None and not fo["completed"]
    if args.json:
        print(campaign_json(results, seed=params.seed,
                            servers=list(counts),
                            placement=args.placement,
                            n_clients=n_clients, blocks=blocks))
    else:
        print(f"Shard scale-out campaign — seed {params.seed}, "
              f"placement {args.placement}, {n_clients} clients, "
              f"{blocks}x4KB blocks")
        print()
        print(render_campaign(results))
        if failed:
            print("FAILED: failover point hung")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
