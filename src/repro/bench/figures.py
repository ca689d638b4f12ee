"""One entry point per evaluation table/figure (Section 5).

Each function builds fresh clusters, runs the paper's workload at a scaled
size (steady-state rates are size-independent; the scale factors are
documented in EXPERIMENTS.md), and returns structured results next to the
paper's published values where the paper prints them.

Each experiment shape is wired here once, as a *cell*: the Fig. 3 stream
(:func:`stream_cell`), the Fig. 6 PostMark set-up
(:func:`postmark_workload`), the Fig. 7 multi-client read
(:func:`fig7_cell`) and the Table 3 microbenchmark
(:func:`_response_time`). The sweeps fold cells into grids, and the
ablation studies call the same cells with one knob changed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..cluster import Cluster
from ..hw.nic import NotifyMode
from ..params import KB, Params, default_params
from ..sim import LatencyStats
from ..workloads.bdb import BerkeleyDBJoinWorkload
from ..workloads.postmark import PostMarkWorkload
from ..workloads.sequential import SequentialReadWorkload
from ..workloads.smallio import MultiClientReadWorkload
from .runner import base_params, run_grid, run_points

#: Fig. 3/4 application block sizes (KB), as in the paper.
FIG3_BLOCK_SIZES_KB = (4, 8, 16, 32, 64, 128, 256, 512)
#: Fig. 3 systems.
FIG3_SYSTEMS = ("nfs", "nfs-prepost", "nfs-hybrid", "dafs")
#: Fig. 7 cache block sizes (KB).
FIG7_BLOCK_SIZES_KB = (4, 8, 16, 32, 64)

#: Published anchor values for side-by-side reporting.
PAPER_FIG3_PLATEAU = {"nfs": 65.0, "nfs-prepost": 235.0,
                      "nfs-hybrid": 230.0, "dafs": 230.0}
PAPER_TABLE3 = {
    "rpc_inline": {"in_mem": 128.0, "in_cache": 153.0},
    "rpc_direct": {"in_mem": 144.0, "in_cache": 144.0},
    "ordma": {"in_mem": 92.0, "in_cache": 92.0},
}
PAPER_FIG6_GAIN = 0.34   # ODAFS ~34% over DAFS at every hit ratio
PAPER_FIG7_GAIN = 0.32   # ODAFS ~32% over polling DAFS at 4 KB


# ---------------------------------------------------------------------------
# Fig. 3 + Fig. 4: client read throughput and CPU utilization
# ---------------------------------------------------------------------------

def dafs_cache_kwargs(system: str, cache_blocks: int) -> Dict[str, int]:
    """Client kwargs sizing a DAFS/ODAFS client cache; the NFS variants
    keep their own defaults."""
    if system in ("dafs", "odafs"):
        return {"cache_blocks": cache_blocks}
    return {}


def stream_cell(params: Params, system: str, block_kb: int, blocks: int,
                window: int = 16,
                client_kwargs: Optional[Dict] = None) -> Dict[str, float]:
    """The Fig. 3 stream: one client reads a warm ``blocks``-block file
    sequentially in ``block_kb`` KB reads, ``window`` in flight, past a
    bypassed DAFS client cache. ``client_kwargs`` add client options
    (e.g. registration caching)."""
    block = block_kb * KB
    cluster = Cluster(params.copy(), system=system, block_size=block,
                      server_cache_blocks=blocks + 8,
                      client_kwargs={**dafs_cache_kwargs(system, 0),
                                     **(client_kwargs or {})})
    cluster.create_file("stream", blocks * block)
    out = SequentialReadWorkload(cluster, "stream", blocks * block, block,
                                 window=window).run()
    return {
        "throughput_mb_s": out["throughput_mb_s"],
        "client_cpu": out["client_cpu"],
    }


def _fig3_point(spec) -> Dict[str, float]:
    """One (system, block size) cell of the Fig. 3/4 sweep."""
    system, block_kb, blocks_per_point, window = spec
    return stream_cell(base_params(), system, block_kb, blocks_per_point,
                       window)


def fig3_fig4(params: Optional[Params] = None,
              systems: Iterable[str] = FIG3_SYSTEMS,
              block_sizes_kb: Iterable[int] = FIG3_BLOCK_SIZES_KB,
              blocks_per_point: int = 512,
              window: int = 16,
              jobs: Optional[int] = None
              ) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Sequential read-ahead sweep over application block size.

    Returns {system: {block_kb: {throughput_mb_s, client_cpu}}}. The paper
    used a 1.5 GB file; we scale the file with the block size
    (``blocks_per_point`` blocks) since steady-state rates are
    size-independent. ``jobs`` fans the grid across a process pool; each
    point is seed-deterministic, so the result is identical for any job
    count.
    """
    block_sizes_kb = list(block_sizes_kb)
    specs = [(system, block_kb, blocks_per_point, window)
             for system in systems for block_kb in block_sizes_kb]
    return run_grid(_fig3_point, specs, lambda s: s[:2], jobs=jobs,
                    base=params or default_params(),
                    cost=lambda s: s[1])  # bytes moved ~ block size


# ---------------------------------------------------------------------------
# Fig. 5: Berkeley DB join throughput vs per-record copying
# ---------------------------------------------------------------------------

def _fig5_point(spec) -> float:
    """One (system, copied KB) cell of the Fig. 5 sweep."""
    system, copied_kb, n_records, window = spec
    params = base_params()
    io = BerkeleyDBJoinWorkload.IO_BYTES
    copy_bytes = min(copied_kb * KB, BerkeleyDBJoinWorkload.RECORD_BYTES)
    if copied_kb == 0:
        copy_bytes = 1
    cluster = Cluster(params.copy(), system=system, block_size=io,
                      server_cache_blocks=n_records + 8,
                      client_kwargs=dafs_cache_kwargs(system, 0))
    cluster.create_file("db", n_records * io)
    workload = BerkeleyDBJoinWorkload(cluster, "db", n_records,
                                      copy_bytes, window=window)
    return workload.run()["throughput_mb_s"]


def fig5_berkeley_db(params: Optional[Params] = None,
                     systems: Iterable[str] = FIG3_SYSTEMS,
                     copy_points_kb: Iterable[int] = (0, 8, 16, 32, 64),
                     n_records: int = 256,
                     window: int = 8,
                     jobs: Optional[int] = None
                     ) -> Dict[str, Dict[int, float]]:
    """Returns {system: {copied_kb: throughput_mb_s}}.

    ``copied_kb=0`` copies one byte (the paper's minimum); 64 means the
    whole 60 KB record (the paper's axis tops at its record size).
    """
    copy_points_kb = list(copy_points_kb)
    specs = [(system, copied_kb, n_records, window)
             for system in systems for copied_kb in copy_points_kb]
    return run_grid(_fig5_point, specs, lambda s: s[:2], jobs=jobs,
                    base=params or default_params(),
                    cost=lambda s: s[1])  # per-record copy bytes


# ---------------------------------------------------------------------------
# Table 3: 4 KB read response time
# ---------------------------------------------------------------------------

def _table3_point(spec) -> float:
    """One (system, rpc mode) microbenchmark of the Table 3 grid."""
    system, rpc_mode, n_blocks, measure_blocks = spec
    return _response_time(base_params(), system, rpc_mode, n_blocks,
                          measure_blocks)


def table3_response_time(params: Optional[Params] = None,
                         n_blocks: int = 1024,
                         measure_blocks: int = 512,
                         jobs: Optional[int] = None
                         ) -> Dict[str, Dict[str, float]]:
    """Response time of 4 KB reads by network I/O mechanism.

    The paper's microbenchmark reads a file warm in the server cache twice
    in 4 KB increments with a small, cold client cache; the second pass
    still misses the client cache but (for ORDMA) hits the reference
    directory. Reported: mean second-pass response time.
    """
    params = params or default_params()
    specs = [("dafs", "inline-mem", n_blocks, measure_blocks),
             ("dafs", "inline", n_blocks, measure_blocks),
             ("dafs", "direct", n_blocks, measure_blocks),
             ("odafs", "direct", n_blocks, measure_blocks)]
    inline_mem, inline, direct, ordma = \
        run_points(_table3_point, specs, jobs=jobs, base=params)
    return {
        "rpc_inline": {"in_mem": inline_mem, "in_cache": inline},
        "rpc_direct": {"in_mem": direct, "in_cache": direct},
        "ordma": {"in_mem": ordma, "in_cache": ordma},
    }


def _response_time(params: Params, system: str, rpc_mode: str,
                   n_blocks: int, measure_blocks: int,
                   use_capabilities: bool = True) -> float:
    """The Table 3 microbenchmark: mean response time of the first
    ``measure_blocks`` 4 KB reads of a second pass over a warm file."""
    block = 4 * KB
    cluster = Cluster(params.copy(), system=system, block_size=block,
                      server_cache_blocks=n_blocks + 8,
                      use_capabilities=use_capabilities,
                      client_kwargs={"cache_blocks": 8,
                                     "rpc_read_mode": rpc_mode})
    cluster.create_file("micro", n_blocks * block)
    client = cluster.clients[0]
    stats = LatencyStats()

    def main():
        yield from client.open("micro")
        for i in range(n_blocks):  # pass 1: cold, fills the directory
            yield from client.read("micro", i * block, block)
        for i in range(measure_blocks):  # pass 2: measured
            start = cluster.sim.now
            yield from client.read("micro", i * block, block)
            stats.record(cluster.sim.now - start)
        return stats.mean

    return cluster.sim.run_process(main())


# ---------------------------------------------------------------------------
# Fig. 6: PostMark throughput vs client cache hit ratio
# ---------------------------------------------------------------------------

def postmark_workload(params: Params, system: str, n_files: int,
                      transactions: int, server_cache_blocks: int,
                      client_cache_blocks: int,
                      read_ratio: float = 1.0) -> PostMarkWorkload:
    """The Fig. 6 PostMark shape, set up and ready to run: ``n_files``
    4 KB files on a 4 KB-block cluster with the given server and client
    cache sizes. The cluster is ``workload.cluster``."""
    cluster = Cluster(params.copy(), system=system, block_size=4 * KB,
                      server_cache_blocks=server_cache_blocks,
                      client_kwargs={"cache_blocks": client_cache_blocks})
    workload = PostMarkWorkload(cluster, n_files=n_files,
                                transactions=transactions,
                                read_ratio=read_ratio)
    workload.setup()
    return workload


def _fig6_point(spec) -> Dict[str, float]:
    """One (system, hit ratio) cell of the Fig. 6 sweep."""
    system, ratio, n_files, transactions = spec
    cache_blocks = max(1, int(n_files * ratio))
    out = postmark_workload(base_params(), system, n_files, transactions,
                            server_cache_blocks=n_files + 8,
                            client_cache_blocks=cache_blocks).run()
    return {
        "txns_per_s": out["txns_per_s"],
        "server_cpu": out["server_cpu"],
        "hit_ratio": out.get("client_cache_hit_ratio", 0.0),
    }


def fig6_postmark(params: Optional[Params] = None,
                  hit_ratios: Iterable[float] = (0.25, 0.50, 0.75),
                  n_files: int = 512,
                  transactions: int = 4000,
                  jobs: Optional[int] = None
                  ) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Returns {system: {hit_pct: {txns_per_s, server_cpu, hit_ratio}}}.

    The client cache hit ratio is controlled by sizing the client cache
    relative to the fixed file set, exactly as the paper varies it.
    """
    hit_ratios = list(hit_ratios)
    specs = [(system, ratio, n_files, transactions)
             for system in ("dafs", "odafs") for ratio in hit_ratios]
    return run_grid(_fig6_point, specs, lambda s: (s[0], int(s[1] * 100)),
                    jobs=jobs, base=params or default_params())


# ---------------------------------------------------------------------------
# Fig. 7: server throughput, two clients, small I/O
# ---------------------------------------------------------------------------

def fig7_cell(params: Params, system: str, block_kb: int,
              blocks_per_file: int, mode: NotifyMode = NotifyMode.BLOCK,
              app_blocks: int = 8, n_clients: int = 2) -> Dict[str, float]:
    """The Fig. 7 shape: ``n_clients`` clients read the same warm file
    twice through 32-block client caches, in application reads of
    ``app_blocks`` cache blocks; ``mode`` is the server's notification
    mode. Throughput is measured over the second pass."""
    block = block_kb * KB
    file_size = blocks_per_file * block
    cluster = Cluster(params.copy(), system=system,
                      block_size=block, n_clients=n_clients,
                      server_cache_blocks=blocks_per_file + 8,
                      server_notify_mode=mode,
                      client_kwargs={"cache_blocks": 32})
    cluster.create_file("big", file_size)
    out = MultiClientReadWorkload(cluster, "big", file_size,
                                  app_block_size=app_blocks * block).run()
    return {
        "throughput_mb_s": out["throughput_mb_s"],
        "server_cpu": out["server_cpu"],
    }


def _fig7_point(spec) -> Dict[str, float]:
    """One (system, cache block size) cell of the Fig. 7 sweep."""
    system, block_kb, blocks_per_file, mode_value, app_blocks = spec
    return fig7_cell(base_params(), system, block_kb, blocks_per_file,
                     NotifyMode(mode_value), app_blocks)


def fig7_server_throughput(params: Optional[Params] = None,
                           block_sizes_kb: Iterable[int] = FIG7_BLOCK_SIZES_KB,
                           blocks_per_file: int = 768,
                           server_mode: NotifyMode = NotifyMode.BLOCK,
                           systems: Iterable[str] = ("dafs", "odafs"),
                           app_blocks: int = 8,
                           jobs: Optional[int] = None
                           ) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Returns {system: {cache_block_kb: {throughput_mb_s, server_cpu}}}.

    Two clients read the same warm file twice; throughput is measured over
    the second pass. ``server_mode`` selects interrupt- vs polling-driven
    DAFS service (the paper reports both at 4 KB).
    """
    block_sizes_kb = list(block_sizes_kb)
    specs = [(system, block_kb, blocks_per_file,
              server_mode.value, app_blocks)
             for system in systems for block_kb in block_sizes_kb]
    return run_grid(_fig7_point, specs, lambda s: s[:2], jobs=jobs,
                    base=params or default_params(),
                    cost=lambda s: s[1])  # cache block size
