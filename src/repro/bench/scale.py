"""``repro-bench scale`` — client-scaling sweep against one server.

The paper's headline multi-client numbers (Figs. 6/7) stop at the
testbed's four machines. This campaign extends them: for each
``(mix, system, n_clients)`` point it wires a fresh cluster with the
server admission/request scheduler enabled (bounded accept queue +
service-thread pool, :mod:`repro.nas.server.sched`) and sweeps
``n_clients`` up to 32, emitting throughput- and latency-versus-clients
curves. The qualitative result to reproduce: NFS saturates on server CPU
and its response time balloons with queueing delay, while ODAFS's
client-initiated reads bypass the server CPU and keep climbing to the
link — the >=30% small-I/O gain of Section 5.2 at scale.

Two workload mixes:

* ``smallio`` — every client streams the same warm file in 4 KB reads
  through a tiny client cache (the Fig. 7 shape, N-wide);
* ``postmark`` — every client runs read-only PostMark-style open/read/
  close transactions over a shared small-file set (the Fig. 6 shape,
  N-wide).

Every point is a pure function of ``(master seed, point spec)``: all
randomness comes from named :class:`~repro.sim.RandomStreams`, so two
same-seed campaigns emit byte-identical JSON for any ``--jobs`` count
(the CI campaign-smoke job diffs them).

Examples::

    repro-bench scale --quick --seed 7
    repro-bench scale --systems nfs odafs --clients 1 2 4 8 16 32
    repro-bench scale --quick --json > scale.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..cluster import SHARD_SYSTEMS, Cluster
from ..params import KB, Params, default_params
from ..sim import LatencyStats
from ..workloads.postmark import run_shared_postmark
from ..workloads.smallio import MultiClientReadWorkload
from .plot import ascii_chart
from .runner import add_campaign_args, campaign_json, positive_int, \
    run_grid, seeded_params
from .runner import base_params as runner_base_params

#: Workload mixes the campaign can sweep.
MIXES = ("smallio", "postmark")

#: Client counts, default and --quick grids.
DEFAULT_CLIENTS = (1, 2, 4, 8, 16, 32)
QUICK_CLIENTS = (1, 2, 4, 8)

#: Systems compared by default (the paper's Fig. 6/7 cast).
DEFAULT_SYSTEMS = ("nfs", "dafs", "odafs")
QUICK_SYSTEMS = ("nfs", "odafs")

#: 4 KB: the paper's small-I/O unit (Table 3, Fig. 6, Fig. 7 @ 4 KB).
BLOCK = 4 * KB


class ClientCacheHitError(RuntimeError):
    """A smallio point read from a client cache instead of the network."""


def run_point(params: Params, mix: str, system: str, n_clients: int,
              client_kwargs: Dict[str, Any], app_block: int, name: str,
              fields: Callable[[Cluster], Dict[str, Any]], blocks: int,
              n_files: int, transactions: int) -> Dict[str, Any]:
    """One ``scale``/``shard`` point on a fresh cluster, rounded so runs
    are byte-identical (key order is part of the JSON bytes).

    ``smallio``: every client reads a warm ``blocks``-block file
    ``name`` twice in ``app_block`` reads; pass 2 is measured, and a
    client-cache hit raises :class:`ClientCacheHitError`. ``postmark``:
    each client runs ``transactions`` read-only transactions over
    ``n_files`` shared files, drawn from ``{name}.pm{i}`` streams. The
    campaign's ``fields(cluster)`` follow the shared leading fields, and
    ODAFS points end with the share of remote fills served by ORDMA.
    """
    smallio = mix == "smallio"
    server_blocks = (blocks if smallio else n_files) + 8
    cluster = Cluster(params, system=system, n_clients=n_clients,
                      block_size=BLOCK, server_cache_blocks=server_blocks,
                      client_kwargs=client_kwargs)
    subs = [sub for i in range(n_clients)
            for _, sub in cluster.named_subclients(i)]
    if smallio:
        cluster.create_file(name, blocks * BLOCK)
        latency = LatencyStats("read_us")
        result = MultiClientReadWorkload(cluster, name, blocks * BLOCK,
                                         app_block_size=app_block,
                                         latency=latency).run()
        ops = n_clients * blocks * BLOCK // app_block  # measured pass only
        elapsed = ops * app_block / result["throughput_mb_s"]
        hits = sum(sub.stats.get("cache_reads") if system == "nfs"
                   else sub.cache.stats.get("hits") for sub in subs)
        if hits:
            raise ClientCacheHitError(
                f"smallio {system} at {cluster.n_servers} server(s), "
                f"{n_clients} client(s), {blocks} blocks: {hits} "
                f"client-cache hit(s); each server's share of the file "
                f"must exceed the client cache")
    else:
        latency = LatencyStats("txn_us")
        elapsed = run_shared_postmark(cluster, n_files, transactions,
                                      latency, stream_prefix=name)
        ops, app_block = n_clients * transactions, BLOCK
    point: Dict[str, Any] = {
        "ops": ops,
        "sim_us": round(cluster.sim.now, 2),
        "elapsed_us": round(elapsed, 2),
        "throughput_mb_s": (round(ops * app_block / elapsed, 3)
                            if elapsed > 0 else 0.0),
        "ops_s": (round(ops / elapsed * 1e6, 1) if elapsed > 0 else 0.0),
        "p50_us": round(latency.percentile(50), 2) if latency.count else 0.0,
        "p95_us": round(latency.percentile(95), 2) if latency.count else 0.0,
        "p99_us": round(latency.percentile(99), 2) if latency.count else 0.0,
        "server_cpu": round(cluster.server_cpu_utilization(), 4),
        **fields(cluster),
    }
    if system == "odafs":
        ordma = sum(sub.stats.get("ordma_reads") for sub in subs)
        fills = ordma + sum(sub.stats.get("rpc_fills") for sub in subs)
        point["ordma_frac"] = round(ordma / fills, 4) if fills else 0.0
    return point


def _sched_fields(cluster: Cluster) -> Dict[str, Any]:
    """The scheduler's ledger and the clients' rejected calls."""
    sched = cluster.scheduler
    return {
        "sched": {
            "admitted": sched.stats.get("admitted"),
            "rejected": sched.stats.get("rejected"),
            "completed": sched.stats.get("completed"),
            "peak_qdepth": sched.peak_qdepth,
            "peak_active": sched.peak_active,
        },
        "client_rejected_calls": sum(c.rpc.stats.get("rejected_calls")
                                     for c in cluster.clients),
    }


def _scale_point(spec, params: Optional[Params] = None) -> Dict[str, Any]:
    """One grid point, shaped for :func:`repro.bench.runner.run_points`:
    ``params`` (default: the campaign's base) with the admission
    scheduler switched on."""
    (mix, system, n_clients, blocks, n_files, transactions,
     policy, service_threads, max_queue) = spec
    p = (params or runner_base_params()).copy()
    p.sched.policy = policy
    p.sched.service_threads = service_threads
    p.sched.max_queue = max_queue
    # Small client caches so the measured pass always misses locally.
    kwargs = ({"cache_blocks": 8} if system in ("dafs", "odafs")
              else {"bcache_entries": 8})
    return run_point(p, mix, system, n_clients, kwargs, BLOCK, "scale",
                     _sched_fields, blocks, n_files, transactions)


def run_point_smallio(system: str, n_clients: int,
                      params: Optional[Params] = None, blocks: int = 48,
                      policy: str = "fair", service_threads: int = 4,
                      max_queue: int = 32) -> Dict[str, Any]:
    """One small-I/O point of :func:`run_point`: N clients stream a warm
    ``blocks``-block file twice in 4 KB reads; pass 2 is measured."""
    return _scale_point(("smallio", system, n_clients, blocks, 0, 0,
                         policy, service_threads, max_queue),
                        params or default_params())


def saturation_summary(series: Dict[str, Dict[str, Dict[str, Any]]]
                       ) -> Dict[str, Any]:
    """Where each system's throughput saturates, and the ODAFS gain.

    The saturation point is the smallest client count past which adding
    clients improves throughput by <5%; the headline figure is ODAFS's
    gain over NFS at NFS's saturated count (the paper's 32% claim).
    """
    summary: Dict[str, Any] = {}
    for system, points in series.items():
        counts = sorted(points, key=int)
        sat = counts[-1]
        for prev, cur in zip(counts, counts[1:]):
            prev_t = points[prev]["throughput_mb_s"]
            cur_t = points[cur]["throughput_mb_s"]
            if prev_t > 0 and cur_t < prev_t * 1.05:
                sat = prev
                break
        summary[system] = {
            "saturation_clients": int(sat),
            "peak_mb_s": max(p["throughput_mb_s"]
                             for p in points.values()),
        }
    if "nfs" in series and "odafs" in series:
        sat = str(summary["nfs"]["saturation_clients"])
        nfs_t = series["nfs"][sat]["throughput_mb_s"]
        odafs_t = series["odafs"][sat]["throughput_mb_s"]
        summary["odafs_vs_nfs_at_saturation"] = (
            round(odafs_t / nfs_t - 1.0, 4) if nfs_t > 0 else 0.0)
    return summary


def scale_campaign(params: Optional[Params] = None,
                   systems: Sequence[str] = DEFAULT_SYSTEMS,
                   mixes: Sequence[str] = MIXES,
                   client_counts: Sequence[int] = DEFAULT_CLIENTS,
                   blocks: int = 48, n_files: int = 32,
                   transactions: int = 48, policy: str = "fair",
                   service_threads: int = 4, max_queue: int = 32,
                   jobs: Optional[int] = None) -> Dict[str, Any]:
    """{mix: {system: {str(n): point}, "summary": ...}} over the grid.

    Points share no mutable state (each builds its own cluster from the
    seed), so the grid fans out over ``jobs`` workers with results
    byte-identical to a serial run.
    """
    for system in systems:
        if system not in SHARD_SYSTEMS:
            raise ValueError(f"unknown system {system!r}; "
                             f"one of {SHARD_SYSTEMS}")
    for mix in mixes:
        if mix not in MIXES:
            raise ValueError(f"unknown mix {mix!r}; one of {MIXES}")
    base = params if params is not None else default_params()
    specs = [(mix, system, n, blocks, n_files, transactions,
              policy, service_threads, max_queue)
             for mix in mixes
             for system in systems
             for n in client_counts]
    results = run_grid(_scale_point, specs,
                       lambda s: (s[0], s[1], str(s[2])), jobs=jobs,
                       base=base, cost=lambda s: s[2])  # client count
    for mix in results:
        results[mix]["summary"] = saturation_summary(
            {s: pts for s, pts in results[mix].items() if s != "summary"})
    return results


def render_campaign(results: Dict[str, Any]) -> str:
    """Per-mix scaling tables plus throughput/latency-vs-clients curves."""
    lines: List[str] = []
    for mix, per_system in results.items():
        lines.append(f"== mix: {mix} (x axis: clients) ==")
        lines.append(f"  {'system':<8} {'n':>4} {'MB/s':>8} {'ops/s':>10} "
                     f"{'p50 us':>9} {'p95 us':>9} {'p99 us':>9} "
                     f"{'srv cpu':>8} {'qpeak':>6} {'rej':>6}")
        tput: Dict[str, Dict[int, float]] = {}
        p95: Dict[str, Dict[int, float]] = {}
        for system, points in per_system.items():
            if system == "summary":
                continue
            for key, point in points.items():
                n = int(key)
                tput.setdefault(system, {})[n] = point["throughput_mb_s"]
                p95.setdefault(system, {})[n] = point["p95_us"]
                lines.append(
                    f"  {system:<8} {n:>4} "
                    f"{point['throughput_mb_s']:>8.2f} "
                    f"{point['ops_s']:>10.1f} {point['p50_us']:>9.1f} "
                    f"{point['p95_us']:>9.1f} {point['p99_us']:>9.1f} "
                    f"{point['server_cpu']:>8.3f} "
                    f"{point['sched']['peak_qdepth']:>6} "
                    f"{point['sched']['rejected']:>6}")
        lines.append("")
        lines.append(ascii_chart(tput, ylabel="MB/s", xlabel="clients"))
        lines.append("")
        lines.append(ascii_chart(p95, ylabel="p95 us", xlabel="clients"))
        summary = per_system.get("summary", {})
        for system, stats in summary.items():
            if isinstance(stats, dict):
                lines.append(f"  {system}: saturates at "
                             f"{stats['saturation_clients']} client(s), "
                             f"peak {stats['peak_mb_s']:.1f} MB/s")
        gain = summary.get("odafs_vs_nfs_at_saturation")
        if gain is not None:
            lines.append(f"  ODAFS over NFS at NFS saturation: "
                         f"{gain * 100:+.1f}% (paper: up to +32%)")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point for ``repro-bench scale``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench scale",
        description="Client-scaling sweep: throughput and tail latency "
                    "vs client count per NAS system, with the server "
                    "admission/request scheduler enabled.")
    parser.add_argument("--systems", nargs="+", default=None,
                        choices=SHARD_SYSTEMS, metavar="SYSTEM",
                        help=f"systems to sweep (default: "
                             f"{', '.join(DEFAULT_SYSTEMS)})")
    parser.add_argument("--mixes", nargs="+", default=None,
                        choices=MIXES, metavar="MIX",
                        help="workload mixes to sweep (default: all)")
    parser.add_argument("--clients", nargs="+", type=positive_int,
                        default=None, metavar="N",
                        help=f"client counts (default: "
                             f"{DEFAULT_CLIENTS})")
    parser.add_argument("--blocks", type=positive_int, default=None,
                        help="4 KB blocks in the smallio file "
                             "(default 48, 24 with --quick)")
    parser.add_argument("--files", type=positive_int, default=32,
                        help="PostMark file-set size (default 32)")
    parser.add_argument("--transactions", type=positive_int, default=None,
                        help="measured PostMark transactions per client "
                             "(default 48, 24 with --quick)")
    parser.add_argument("--policy", default="fair",
                        choices=("fifo", "fair"),
                        help="server scheduling policy (default fair)")
    parser.add_argument("--threads", type=positive_int, default=4,
                        help="server service-thread pool size "
                             "(default 4)")
    parser.add_argument("--queue", type=positive_int, default=32,
                        help="server accept-queue bound (default 32)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller defaults (1..8 clients, nfs+odafs, "
                             "smallio only); explicit options still win")
    add_campaign_args(parser)
    args = parser.parse_args(argv)

    params = seeded_params(args.seed)
    quick = args.quick
    systems = tuple(args.systems or
                    (QUICK_SYSTEMS if quick else DEFAULT_SYSTEMS))
    counts = tuple(args.clients or
                   (QUICK_CLIENTS if quick else DEFAULT_CLIENTS))
    mixes = tuple(args.mixes or (("smallio",) if quick else MIXES))
    blocks = args.blocks or (24 if quick else 48)
    transactions = args.transactions or (24 if quick else 48)

    try:
        results = scale_campaign(params=params, systems=systems,
                                 mixes=mixes, client_counts=counts,
                                 blocks=blocks, n_files=args.files,
                                 transactions=transactions,
                                 policy=args.policy,
                                 service_threads=args.threads,
                                 max_queue=args.queue, jobs=args.jobs)
    except ClientCacheHitError as err:
        print(f"repro-bench scale: {err}", file=sys.stderr)
        return 2

    if args.json:
        print(campaign_json(results, seed=params.seed,
                            clients=list(counts), policy=args.policy,
                            service_threads=args.threads,
                            max_queue=args.queue))
    else:
        print(f"Client-scaling campaign — seed {params.seed}, policy "
              f"{args.policy}, {args.threads} service threads, queue "
              f"bound {args.queue}")
        print()
        print(render_campaign(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
