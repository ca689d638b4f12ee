"""The benchmark's three campaign workloads, each split into the phases the
benchmark times from outside: ``build`` (the cluster constructor),
``files`` (``create_file`` calls, which also warm the server caches),
``run`` (``sim.run_process``), ``collect`` (result dict plus
``metrics.snapshot()``) and ``teardown`` (collecting the pass's clusters,
which are cyclic garbage once their results are read).

Every workload is a closed loop: each simulated client issues its next
operation only after the previous one completed. A *pass* is one campaign
point; ``fig7-4k`` is the pair of Fig. 7 cells (DAFS, then ODAFS) whose
ratio is the paper's headline gain. Nothing here changes simulator code:
the model is driven and read only through public calls and attributes,
except the kernel's scheduled-event count (``sim._seq``), which the
repository's own ``repro-bench perf`` reads the same way.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Generator, Iterator, List,
                    Optional, Tuple)

from repro.cluster import Cluster
from repro.hw.nic import NotifyMode
from repro.nas.delegation import WRITE
from repro.nas.shard import ShardedCluster
from repro.params import KB, default_params
from repro.sim import LatencyStats, RandomStreams
from repro.workloads.smallio import MultiClientReadWorkload

#: 4 KB: the paper's small-I/O unit (Fig. 7 at 4 KB, Fig. 6, Table 3).
BLOCK = 4 * KB
#: Fig. 7 application reads span 8 cache blocks (``figures.fig7``).
FIG7_APP_BLOCKS = 8
#: Passes over the file in Fig. 7 and ``scale`` (pass 2 is measured).
READ_PASSES = 2

PHASES = ("build", "files", "run", "collect", "teardown")

#: Sizes of one pass. ``full`` is what the benchmark times; ``tiny`` keeps
#: the same shape at a size the self-test runs in about a second.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "fig7-4k": {"blocks": 768},
        "scale-nfs-32": {"clients": 32, "blocks": 48},
        "shard-odafs-rw": {"clients": 8, "files": 64, "txns": 240},
    },
    "tiny": {
        "fig7-4k": {"blocks": 64},
        "scale-nfs-32": {"clients": 4, "blocks": 16},
        "shard-odafs-rw": {"clients": 2, "files": 16, "txns": 12},
    },
}

#: ``shard-odafs-rw`` transaction mix (fractions of transactions).
CREATE_FRAC = 0.10
WRITE_FRAC = 0.30


class Phases:
    """Host-time spans around the public calls of one pass.

    ``hooks`` maps a phase name to a ``(start, stop)`` pair of callables
    run just inside the span; the traced pass uses them to switch that
    phase's profiler on and off.
    """

    def __init__(self, hooks: Optional[Dict[str, Tuple[
            Callable[[], None], Callable[[], None]]]] = None):
        self.totals: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.spans: List[Dict[str, Any]] = []
        self.hooks = hooks or {}

    @contextmanager
    def __call__(self, phase: str, cell: str) -> Iterator[None]:
        hook = self.hooks.get(phase)
        start = time.perf_counter()
        if hook is not None:
            hook[0]()
        try:
            yield
        finally:
            if hook is not None:
                hook[1]()
            end = time.perf_counter()
            self.totals[phase] += end - start
            self.spans.append({"cell": cell, "phase": phase,
                               "start_s": start, "end_s": end})


def _total(snapshot: Dict[str, Any], prefix: str, suffix: str) -> int:
    return sum(v for k, v in snapshot.items()
               if k.startswith(prefix) and k.endswith(suffix))


def _nas_clients(cluster) -> List[Any]:
    """Per-server NAS clients: a shard router's subclients, or the client."""
    out = []
    for client in cluster.clients:
        out.extend(getattr(client, "subclients", None) or [client])
    return out


def model_counts(cluster, snapshot: Dict[str, Any]) -> Dict[str, int]:
    """Exact simulated counters of one cell, read from the public registry
    (plus the switch's frame count and the ORDMA directories)."""
    odafs = cluster.system == "odafs"
    directories = [c.directory.stats for c in _nas_clients(cluster)
                   if getattr(c, "directory", None) is not None]
    return {
        "events": cluster.sim._seq,
        "frames": cluster.switch.frames_forwarded,
        "rpc_calls": _total(snapshot, "client", ".rpc.calls"),
        "rpc_replies": _total(snapshot, "client", ".rpc.replies"),
        "rpc_rejected": _total(snapshot, "client", ".rpc.rejected_calls"),
        "server_rpc_requests": _total(snapshot, "server", ".rpc.requests"),
        "sched_admitted": _total(snapshot, "server", ".sched.admitted"),
        "sched_rejected": _total(snapshot, "server", ".sched.rejected"),
        "sched_completed": _total(snapshot, "server", ".sched.completed"),
        "server_cache_hits": _total(snapshot, "server", ".cache.hits"),
        "server_cache_misses": _total(snapshot, "server", ".cache.misses"),
        "client_cache_hits": _total(snapshot, "client", ".cache.hits"),
        "client_cache_misses": _total(snapshot, "client", ".cache.misses"),
        "ordma_reads": _total(snapshot, "client", ".ops.ordma_reads"),
        # Remote fills an ODAFS client had to take over RPC; DAFS fills
        # are RPC by design and would dilute the ORDMA fraction.
        "ordma_rpc_fills": (_total(snapshot, "client", ".ops.rpc_fills")
                            if odafs else 0),
        "dir_hits": sum(d.get("hits") for d in directories),
        "dir_misses": sum(d.get("misses") for d in directories),
        "dir_invalidations": sum(d.get("invalidations")
                                 for d in directories),
        "shard_segments": _total(snapshot, "client",
                                 ".shard.routed_segments"),
    }


def conservation_errors(counts: Dict[str, int], planned: int,
                        completed: int) -> List[str]:
    """Cross-layer accounting that must hold once a cell has quiesced."""
    errors = []
    if completed != planned:
        errors.append(f"ops completed {completed} != issued {planned}")
    # A shed call is answered by a busy reply and retried under the same
    # xid, so every call ends in exactly one reply plus one per rejection.
    if counts["rpc_replies"] != counts["rpc_calls"] + counts["rpc_rejected"]:
        errors.append(f"rpc replies {counts['rpc_replies']} != calls "
                      f"{counts['rpc_calls']} + rejected "
                      f"{counts['rpc_rejected']}")
    if counts["server_rpc_requests"] != counts["rpc_replies"]:
        errors.append(f"server requests {counts['server_rpc_requests']} "
                      f"!= client replies {counts['rpc_replies']}")
    if counts["sched_admitted"] != counts["sched_completed"]:
        errors.append(f"scheduler admitted {counts['sched_admitted']} "
                      f"!= completed {counts['sched_completed']}")
    return errors


class Cell:
    """One simulated campaign cell's outputs."""

    def __init__(self, system: str, cluster, point: Dict[str, Any],
                 snapshot: Dict[str, Any], planned: int, completed: int):
        self.system = system
        self.point = point
        self.snapshot = snapshot
        self.ops = completed
        self.counts = model_counts(cluster, snapshot)
        self.errors = conservation_errors(self.counts, planned, completed)


class PassResult:
    """One pass (campaign point): its cells, timings and digest."""

    def __init__(self, cells: List[Cell], phases: Phases, point_s: float):
        self.cells = cells
        self.phases = phases
        self.point_s = point_s
        self.ops = sum(c.ops for c in cells)
        self.counts: Dict[str, int] = {}
        for cell in cells:
            for key, value in cell.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
        self.errors = [f"{c.system}: {e}" for c in cells for e in c.errors]
        canonical = json.dumps([{"system": c.system, "point": c.point,
                                 "metrics": c.snapshot} for c in cells],
                               sort_keys=True, default=str)
        self.digest = hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def setup_s(self) -> float:
        return self.phases.totals["build"] + self.phases.totals["files"]

    @property
    def run_s(self) -> float:
        return self.phases.totals["run"]


# -- fig7-4k -----------------------------------------------------------------

def _fig7_cell(seed: int, system: str, blocks: int,
               phases: Phases) -> Cell:
    """One Fig. 7 cell, as ``figures.fig7_server_throughput`` runs it."""
    params = default_params().copy(seed=seed)
    file_size = blocks * BLOCK
    with phases("build", system):
        cluster = Cluster(params, system=system, block_size=BLOCK,
                          n_clients=2, server_cache_blocks=blocks + 8,
                          server_notify_mode=NotifyMode.BLOCK,
                          client_kwargs={"cache_blocks": 32})
    with phases("files", system):
        cluster.create_file("big", file_size)
    workload = MultiClientReadWorkload(
        cluster, "big", file_size,
        app_block_size=FIG7_APP_BLOCKS * BLOCK)
    with phases("run", system):
        out = workload.run()
    with phases("collect", system):
        point = {"throughput_mb_s": out["throughput_mb_s"],
                 "server_cpu": out["server_cpu"]}
        snapshot = cluster.metrics.snapshot()
    planned = READ_PASSES * 2 * (blocks // FIG7_APP_BLOCKS)
    return Cell(system, cluster, point, snapshot, planned,
                _total(snapshot, "client", ".ops.reads"))


def fig7_4k(seed: int, size: Dict[str, int], phases: Phases) -> List[Cell]:
    """DAFS then ODAFS: 2 clients read a warm file twice through 32-block
    client caches; the second pass is measured."""
    return [_fig7_cell(seed, system, size["blocks"], phases)
            for system in ("dafs", "odafs")]


# -- scale-nfs-32 ------------------------------------------------------------

def scale_nfs_32(seed: int, size: Dict[str, int],
                 phases: Phases) -> List[Cell]:
    """``scale.run_point_smallio("nfs", 32)``: 32 NFS clients stream a warm
    48-block file twice in 4 KB reads behind the fair admission
    scheduler (4 service threads, accept queue of 32)."""
    params = default_params().copy(seed=seed)
    params.sched.policy = "fair"
    params.sched.service_threads = 4
    params.sched.max_queue = 32
    clients, blocks = size["clients"], size["blocks"]
    with phases("build", "nfs"):
        cluster = Cluster(params, system="nfs", n_clients=clients,
                          block_size=BLOCK, server_cache_blocks=blocks + 8,
                          client_kwargs={"bcache_entries": 8})
    with phases("files", "nfs"):
        cluster.create_file("scale", blocks * BLOCK)
    latency = LatencyStats("read_us")
    workload = MultiClientReadWorkload(cluster, "scale", blocks * BLOCK,
                                       app_block_size=BLOCK,
                                       latency=latency)
    with phases("run", "nfs"):
        out = workload.run()
    with phases("collect", "nfs"):
        point = {"throughput_mb_s": out["throughput_mb_s"],
                 "server_cpu": out["server_cpu"],
                 "sim_us": cluster.sim.now,
                 "p50_us": latency.percentile(50),
                 "p95_us": latency.percentile(95),
                 "p99_us": latency.percentile(99)}
        snapshot = cluster.metrics.snapshot()
    planned = READ_PASSES * clients * blocks
    return [Cell("nfs", cluster, point, snapshot, planned,
                 _total(snapshot, "client", ".ops.reads"))]


# -- shard-odafs-rw ----------------------------------------------------------

def shard_odafs_rw(seed: int, size: Dict[str, int],
                   phases: Phases) -> List[Cell]:
    """ODAFS on 4 stripe-placed servers: each client runs PostMark-style
    transactions over a shared set of 4 KB files — open/read/close,
    open/write/close, and create+write+remove of a client-unique name.

    The file set is small enough that every client comes back to each file
    several times, through a 32-block client cache that holds half of it.
    Writes drop the client's cached copy, so a later read fills it again,
    by ORDMA when the directory holds a reference. Each server's cache
    holds about its share of the file set, so the blocks that creates
    insert, and that reads bring back from disk, evict others: remote
    references go stale, and ORDMA reads fault and fall back to RPC.

    ``seed`` draws the transactions. The cluster keeps the default
    ``Params`` seed, so every seed runs on the same file placement (13 to
    19 of the 64 files per server): other placements leave from 5 to 28
    files on one server, which changes the work per transaction from seed
    to seed.
    """
    params = default_params()
    params.shard.n_servers = 4
    params.shard.placement = "stripe"
    clients, n_files, txns = size["clients"], size["files"], size["txns"]
    with phases("build", "odafs"):
        cluster = ShardedCluster(
            params, system="odafs", n_clients=clients, block_size=BLOCK,
            server_cache_blocks=n_files // 4,
            client_kwargs={"cache_blocks": 32, "rpc_read_mode": "direct"})
    with phases("files", "odafs"):
        for i in range(n_files):
            cluster.create_file(f"pm{i:06d}", BLOCK)
    sim = cluster.sim
    latency = LatencyStats("txn_us")
    kinds = {"read": 0, "write": 0, "create": 0}
    txn_us = params.proto.app_txn_us
    streams = RandomStreams(seed)

    def client_main(idx: int) -> Generator:
        router = cluster.clients[idx]
        rng = streams.stream(f"perfbench.rw{idx}")
        for t in range(txns):
            start = sim.now
            yield from router.host.cpu.execute(txn_us, category="app")
            draw = rng.random()
            if draw < CREATE_FRAC:
                name = f"c{idx}.{t}"
                yield from router.create(name, BLOCK)
                yield from router.write(name, 0, BLOCK)
                yield from router.remove(name)
                kinds["create"] += 1
            else:
                name = f"pm{rng.randrange(n_files):06d}"
                if draw < CREATE_FRAC + WRITE_FRAC:
                    yield from router.open(name, WRITE)
                    yield from router.write(name, 0, BLOCK)
                    kinds["write"] += 1
                else:
                    yield from router.open(name)
                    yield from router.read(name, 0, BLOCK)
                    kinds["read"] += 1
                yield from router.close(name)
            latency.record(sim.now - start)

    def main() -> Generator:
        procs = [sim.process(client_main(i), name=f"rw{i}")
                 for i in range(clients)]
        yield sim.all_of(procs)

    with phases("run", "odafs"):
        sim.run_process(main())
    with phases("collect", "odafs"):
        point = {"kinds": dict(kinds), "sim_us": sim.now,
                 "server_cpus": cluster.server_cpu_utilizations(),
                 "p50_us": latency.percentile(50),
                 "p95_us": latency.percentile(95),
                 "p99_us": latency.percentile(99)}
        snapshot = cluster.metrics.snapshot()
    cell = Cell("odafs", cluster, point, snapshot, clients * txns,
                sum(kinds.values()))
    routed = {op: _total(snapshot, "client", f".shard.{op}")
              for op in ("reads", "writes", "creates", "removes")}
    expected = {"reads": kinds["read"],
                "writes": kinds["write"] + kinds["create"],
                "creates": kinds["create"], "removes": kinds["create"]}
    if routed != expected:
        cell.errors.append(f"router ops {routed} != issued {expected}")
    return [cell]


WORKLOADS: Dict[str, Callable[[int, Dict[str, int], Phases], List[Cell]]] = {
    "fig7-4k": fig7_4k,
    "scale-nfs-32": scale_nfs_32,
    "shard-odafs-rw": shard_odafs_rw,
}


def run_pass(workload: str, seed: int, size: str = "full",
             phases: Optional[Phases] = None) -> PassResult:
    """Run one timed pass of ``workload``; ``point_s`` spans the first
    constructor call to the last result dict, plus collecting the pass's
    clusters, so that no pass pays for tearing down another's."""
    phases = phases or Phases()
    start = time.perf_counter()
    cells = WORKLOADS[workload](seed, SIZES[size][workload], phases)
    with phases("teardown", workload):
        gc.collect()
    return PassResult(cells, phases, time.perf_counter() - start)
