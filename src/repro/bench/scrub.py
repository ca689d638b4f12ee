"""``repro-bench scrub`` — end-to-end integrity under silent corruption.

The chaos campaign injects *detected* faults: dropped frames, timeouts,
crashes — failures the transport sees and recovers from. This campaign
injects the faults nothing sees: disk bit rot on the fill path and
in-flight ORDMA payload corruption, both of which complete successfully
and hand wrong bytes to the reader. The sweep runs every (system,
corruption rate) point twice — ``params.integrity`` off and on — and
reports the contrast the checksums exist to create:

* checksums **off**: corrupt blocks flow to the application undetected
  (``corrupt_reads`` counts them via the campaign-side oracle);
* checksums **on**: every corrupt block a reader consumes is detected
  (at the server for RPC reads, at the *client* for ORDMA reads) and
  repaired by re-read where possible, at a measured throughput cost.

Two scenario points ride along: a **scrubber** point (misdirected writes
leave silently-wrong resident blocks; the background scrubber finds and
repairs them during idle time with no reader involved) and a sharded
**read-repair** point (one server's disk rots every fill, so its reads
quarantine and fail typed; the router reroutes to the replica and writes
the good copy back — without ever marking the rotten-but-alive shard
down).

Every point is a pure function of the master seed (named
``RandomStreams`` throughout), so two same-seed campaigns emit
byte-identical JSON for any ``--jobs`` count (the CI campaign-smoke job
diffs them).

Examples::

    repro-bench scrub --quick --seed 7
    repro-bench scrub --systems nfs odafs --rates 0 0.02 0.1 --jobs 4
    repro-bench scrub --quick --json > scrub.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Optional, Sequence

from ..cluster import SYSTEMS, Cluster
from ..faults import Injector
from ..hw.tpt import RemoteAccessFault
from ..integrity import IntegrityError, is_corrupt
from ..nas.shard import ShardDownError
from ..nas.shard.placement import shard_config_error
from ..params import KB, Params, default_params
from ..proto.rpc import RPCError
from ..sim import LatencyStats
from .chaos import add_fault_campaign_args
from .runner import campaign_json, run_grid, seeded_params
from .runner import base_params as runner_base_params

#: Systems swept by default: the RPC pole (server-side verification)
#: and the direct-access pole (client-side verification of ORDMA reads).
DEFAULT_SYSTEMS = ("nfs", "odafs")

#: Per-event silent-corruption probabilities swept by the campaign.
DEFAULT_RATES = (0.0, 0.01, 0.02, 0.05)
QUICK_RATES = (0.0, 0.05)

#: Scrubber point shape: misdirected writes to repair, then idle time
#: long enough for the scrub daemon to find them.
SCRUB_MISDIRECTS = 8
SCRUB_IDLE_US = 30_000.0
SCRUB_INTERVAL_US = 500.0

BLOCK = 4 * KB


def run_point(system: str, checksums: bool, rate: float,
              params: Optional[Params] = None, blocks: int = 64,
              passes: int = 2) -> Dict[str, Any]:
    """One campaign point: a warm-file scan under silent corruption.

    The server cache is sized at half the file so the sequential scan
    misses every access — each read pays a disk fill, which is where bit
    rot strikes. ODAFS additionally suffers in-flight corruption of the
    optimistic gets themselves. Per-op integrity failures (a block the
    repair ladder could not save) are counted, not fatal.
    """
    p = params.copy() if params is not None else default_params()
    p.integrity.enabled = checksums
    client_kwargs: Dict[str, Any] = {}
    if system in ("dafs", "odafs"):
        client_kwargs = {"cache_blocks": 8, "rpc_read_mode": "direct"}
    cluster = Cluster(p, system=system, block_size=BLOCK,
                      server_cache_blocks=max(8, blocks // 2),
                      client_kwargs=client_kwargs)
    cluster.create_file("scrub", blocks * BLOCK)
    inj = Injector(cluster)
    if rate > 0.0:
        inj.disk_bitrot(rate)
        if system == "odafs":
            inj.ordma_silent_corruption(rate)
    inj.arm()
    client = cluster.clients[0]
    meter = LatencyStats("op_us")
    state = {"ok": 0, "failed": 0, "corrupt": 0}

    def workload():
        yield from client.open("scrub")
        for _ in range(passes):
            for i in range(blocks):
                start = cluster.sim.now
                try:
                    data = yield from client.read("scrub", i * BLOCK, BLOCK)
                except (IntegrityError, RPCError, RemoteAccessFault):
                    state["failed"] += 1
                else:
                    state["ok"] += 1
                    meter.record(cluster.sim.now - start)
                    if is_corrupt(data):
                        state["corrupt"] += 1

    cluster.sim.run_process(workload())
    elapsed = cluster.sim.now
    server = cluster.server
    detected = (server.integrity.get("detected")
                + client.stats.get("integrity_detected"))
    repair = server.repair_latency
    point: Dict[str, Any] = {
        "ops_ok": state["ok"],
        "ops_failed": state["failed"],
        "corrupt_reads": state["corrupt"],
        "injected": (inj.stats.get("disk.bitrot")
                     + inj.stats.get("nic.ordma_corrupt")),
        "detected": detected,
        "repaired": server.integrity.get("repaired"),
        "quarantined": server.integrity.get("quarantined"),
        "client_detected": client.stats.get("integrity_detected"),
        "sim_us": round(elapsed, 2),
        "throughput_mb_s": (round(state["ok"] * BLOCK / elapsed, 3)
                            if elapsed > 0 else 0.0),
        "p50_us": round(meter.percentile(50), 2) if meter.count else 0.0,
        "p95_us": round(meter.percentile(95), 2) if meter.count else 0.0,
        "repair_p50_us": (round(repair.percentile(50), 2)
                          if repair.count else 0.0),
        "repair_p95_us": (round(repair.percentile(95), 2)
                          if repair.count else 0.0),
    }
    return point


def run_scrubber_point(params: Optional[Params] = None,
                       blocks: int = 32) -> Dict[str, Any]:
    """The background-scrubber scenario: misdirected writes leave
    silently-wrong blocks resident in the server cache; nobody reads
    them; the scrub daemon finds and repairs them during idle time."""
    p = params.copy() if params is not None else default_params()
    p.integrity.enabled = True
    p.integrity.scrub_interval_us = SCRUB_INTERVAL_US
    p.integrity.scrub_blocks_per_pass = 16
    cluster = Cluster(p, system="nfs", block_size=BLOCK,
                      server_cache_blocks=blocks + 8)
    cluster.create_file("scrub", blocks * BLOCK)
    inj = Injector(cluster)
    inj.arm()
    inj.disk_faults(0).misdirect_next = SCRUB_MISDIRECTS
    client = cluster.clients[0]

    def workload():
        yield from client.open("scrub")
        for i in range(SCRUB_MISDIRECTS):
            yield from client.write("scrub", i * BLOCK, BLOCK)
        yield cluster.sim.timeout(SCRUB_IDLE_US)
        yield from client.close("scrub")

    proc = cluster.sim.process(workload(), name="scrub-wl")
    cluster.server.scrubber.start(stop_on=proc)
    cluster.sim.run()
    s = cluster.server.integrity
    return {
        "completed": proc.triggered,
        "misdirects_injected": inj.stats.get("disk.misdirect"),
        "scrub_passes": s.get("scrub.passes"),
        "scrub_blocks": s.get("scrub.blocks"),
        "scrub_detected": s.get("scrub.detected"),
        "scrub_repaired": s.get("scrub.repaired"),
        "scrub_quarantined": s.get("scrub.quarantined"),
        "sim_us": round(cluster.sim.now, 2),
    }


def run_repair_point(params: Optional[Params] = None, n_servers: int = 2,
                     system: str = "nfs",
                     blocks: int = 16) -> Dict[str, Any]:
    """The sharded read-repair scenario: server 0's disk rots *every*
    fill, so its reads detect, exhaust the one-retry ladder, quarantine,
    and fail typed (``EINTEGRITY``); the router reroutes each to the
    replica and writes the verified copy back to server 0 — which is
    alive and must *not* be marked down. A second pass verifies the
    repaired blocks now serve clean from server 0's cache."""
    p = params.copy() if params is not None else default_params()
    p.integrity.enabled = True
    p.integrity.verify_retries = 1
    p.shard.n_servers = n_servers
    p.shard.placement = "stripe"
    p.shard.stripe_blocks = 1
    p.shard.replicas = 1
    client_kwargs: Dict[str, Any] = {}
    if system in ("dafs", "odafs"):
        client_kwargs = {"cache_blocks": 8, "rpc_read_mode": "direct"}
    cluster = Cluster(p, system=system, n_clients=1, block_size=BLOCK,
                      server_cache_blocks=blocks + 8,
                      client_kwargs=client_kwargs)
    # Cold caches: every first read pays a disk fill, which on server 0
    # always rots.
    cluster.create_file("rot", blocks * BLOCK, warm=False)
    inj = Injector(cluster)
    inj.arm()
    inj.disk_faults(0).bitrot_next = 1 << 30
    router = cluster.clients[0]
    state = {"ok": 0, "failed": 0, "corrupt": 0}

    def read_all():
        for i in range(blocks):
            try:
                data = yield from router.read("rot", i * BLOCK, BLOCK)
            except (IntegrityError, RPCError, RemoteAccessFault):
                state["failed"] += 1
            else:
                state["ok"] += 1
                if is_corrupt(data):
                    state["corrupt"] += 1

    def workload():
        yield from router.open("rot")
        yield from read_all()   # pass 1: detect, reroute, write back
        yield from read_all()   # pass 2: repaired blocks serve clean
        yield from router.close("rot")

    completed = True
    try:
        cluster.sim.run_process(workload())
    except (ShardDownError, IntegrityError, RPCError, RemoteAccessFault):
        # Recovery gave up with a typed error; anything else is a bug.
        completed = False
    s0 = cluster.servers[0].integrity
    return {
        "completed": completed,
        "ops_ok": state["ok"],
        "ops_failed": state["failed"],
        "corrupt_reads": state["corrupt"],
        "integrity_errors": router.stats.get("integrity_errors"),
        "replica_reads": router.stats.get("replica_reads"),
        "read_repairs": router.stats.get("read_repairs"),
        "down_marks": router.stats.get("down_marks"),
        "server0_detected": s0.get("detected"),
        "server0_quarantined": s0.get("quarantined"),
        "sim_us": round(cluster.sim.now, 2),
    }


def _campaign_point(spec) -> Dict[str, Any]:
    """One grid point, shaped for :func:`repro.bench.runner.run_points`."""
    system, checksums, rate, blocks, passes = spec
    return run_point(system, checksums, rate,
                     params=runner_base_params(),
                     blocks=blocks, passes=passes)


def scrub_campaign(params: Optional[Params] = None,
                   systems: Sequence[str] = DEFAULT_SYSTEMS,
                   rates: Sequence[float] = DEFAULT_RATES,
                   blocks: int = 64, passes: int = 2,
                   repair_servers: int = 2,
                   jobs: Optional[int] = None) -> Dict[str, Any]:
    """{"grid": {system: {"off"/"on": {rate: point}}},
    "scrubber": point, "repair": point}.

    Grid points share no mutable state, so the grid fans out over
    ``jobs`` workers with results byte-identical to a serial run; the
    two scenario points always run in the parent, after the grid.
    """
    for system in systems:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; one of {SYSTEMS}")
    base = params if params is not None else default_params()
    specs = [(system, checksums, rate, blocks, passes)
             for system in systems
             for checksums in (False, True)
             for rate in rates]
    grid = run_grid(_campaign_point, specs,
                    lambda s: (s[0], "on" if s[1] else "off",
                               f"{s[2]:.4f}"),
                    jobs=jobs, base=base,
                    # Verification and repair work scale with the rate.
                    cost=lambda s: s[2] + (0.01 if s[1] else 0.0))
    return {
        "grid": grid,
        "scrubber": run_scrubber_point(params=base),
        "repair": run_repair_point(params=base,
                                   n_servers=repair_servers),
    }


def campaign_failures(results: Dict[str, Any]) -> int:
    """Points violating the integrity contract: with checksums on, any
    corrupt block consumed by a reader is a failure (it was supposed to
    be detected); scenario points must complete with nothing corrupt."""
    bad = 0
    for per_mode in results["grid"].values():
        for point in per_mode.get("on", {}).values():
            if point["corrupt_reads"] > 0:
                bad += 1
    scrubber = results["scrubber"]
    if not scrubber["completed"] or (
            scrubber["scrub_repaired"] + scrubber["scrub_quarantined"]
            < scrubber["misdirects_injected"]):
        bad += 1
    repair = results["repair"]
    if not repair["completed"] or repair["corrupt_reads"] > 0 \
            or repair["down_marks"] > 0:
        bad += 1
    return bad


def render_campaign(results: Dict[str, Any]) -> str:
    """Per-system detection/repair tables plus the scenario points."""
    lines = []
    for system, per_mode in results["grid"].items():
        off, on = per_mode.get("off", {}), per_mode.get("on", {})
        lines.append(f"== system: {system} "
                     f"(silent corruption rate per event) ==")
        lines.append(f"  {'rate':>7} {'off MB/s':>9} {'corrupt':>8} "
                     f"{'on MB/s':>9} {'detect':>7} {'repair':>7} "
                     f"{'quarant':>8} {'escaped':>8} {'rep p95':>8}")
        for rate_key in off:
            o, n = off[rate_key], on.get(rate_key)
            if n is None:
                continue
            lines.append(
                f"  {rate_key:>7} {o['throughput_mb_s']:>9.2f} "
                f"{o['corrupt_reads']:>8} {n['throughput_mb_s']:>9.2f} "
                f"{n['detected']:>7} {n['repaired']:>7} "
                f"{n['quarantined']:>8} {n['corrupt_reads']:>8} "
                f"{n['repair_p95_us']:>8.1f}")
        zero = f"{0.0:.4f}"
        if zero in off and zero in on and off[zero]["throughput_mb_s"]:
            overhead = 1.0 - (on[zero]["throughput_mb_s"]
                              / off[zero]["throughput_mb_s"])
            lines.append(f"  checksum overhead at rate 0: "
                         f"{overhead * 100:.1f}%")
        lines.append("")
    s = results["scrubber"]
    lines.append("== scrubber: misdirected writes repaired in idle time ==")
    lines.append(f"  {'completed' if s['completed'] else 'HUNG'}: "
                 f"{s['misdirects_injected']} silently-wrong block(s); "
                 f"{s['scrub_passes']} pass(es) verified "
                 f"{s['scrub_blocks']} block(s), detected "
                 f"{s['scrub_detected']}, repaired {s['scrub_repaired']}, "
                 f"quarantined {s['scrub_quarantined']}")
    lines.append("")
    r = results["repair"]
    lines.append("== read-repair: one shard's disk rots every fill, "
                 "replicas=1 ==")
    lines.append(f"  {'completed' if r['completed'] else 'HUNG'}: "
                 f"{r['ops_ok']} ok, {r['ops_failed']} failed, "
                 f"{r['corrupt_reads']} corrupt; "
                 f"{r['integrity_errors']} EINTEGRITY rerouted, "
                 f"{r['read_repairs']} read-repair write-back(s), "
                 f"{r['down_marks']} down-mark(s) "
                 f"(the rotten shard stays up)")
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point for ``repro-bench scrub``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench scrub",
        description="Run end-to-end integrity campaigns: silent disk/"
                    "ORDMA corruption vs block checksums, with "
                    "read-repair and a background scrubber.")
    parser.add_argument("--systems", nargs="+", default=None,
                        choices=SYSTEMS, metavar="SYSTEM",
                        help=f"systems to sweep (default: "
                             f"{', '.join(DEFAULT_SYSTEMS)})")
    parser.add_argument("--rates", nargs="+", type=float, default=None,
                        metavar="P",
                        help="per-event silent-corruption probabilities "
                             f"(default: {DEFAULT_RATES})")
    parser.add_argument("--repair-servers", type=int, default=2,
                        metavar="N",
                        help="server count for the sharded read-repair "
                             "point (default 2; needs >= 2 for the "
                             "replica)")
    add_fault_campaign_args(
        parser, seed_help="master seed for all corruption streams",
        quick_help="smaller grid (24 blocks, 2 rates)")
    args = parser.parse_args(argv)

    params = seeded_params(args.seed)
    systems = tuple(args.systems) if args.systems else DEFAULT_SYSTEMS
    rates = tuple(args.rates) if args.rates else \
        (QUICK_RATES if args.quick else DEFAULT_RATES)
    blocks = 24 if args.quick else args.blocks

    repair_shard = params.copy().shard
    repair_shard.n_servers = args.repair_servers
    repair_shard.replicas = 1
    err = shard_config_error(repair_shard, params.seed)
    if err is not None:
        print(f"repro-bench scrub: invalid --repair-servers "
              f"{args.repair_servers}: {err}", file=sys.stderr)
        return 2

    results = scrub_campaign(params=params, systems=systems, rates=rates,
                             blocks=blocks, passes=args.passes,
                             repair_servers=args.repair_servers,
                             jobs=args.jobs)
    failures = campaign_failures(results)

    if args.json:
        print(campaign_json(results, seed=params.seed, rates=list(rates),
                            blocks=blocks, passes=args.passes))
    else:
        print(f"Integrity campaign — seed {params.seed}, {blocks}x4KB "
              f"blocks x{args.passes} passes per point")
        print()
        print(render_campaign(results))
        if failures:
            print(f"FAILED: {failures} point(s) let corruption escape or "
                  f"hung")
        else:
            print("All integrity points held: nothing corrupt escaped "
                  "with checksums on.")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
