"""Ablations of the design choices the paper calls out.

Each function isolates one knob discussed in the paper and returns a
structured comparison:

* interrupts vs polling at the DAFS server (Section 5.2);
* ORDMA success rate — server cache hit rate sweep (Section 4.2.2);
* LRU vs Multi-Queue ORDMA directory replacement (Section 4.2);
* registration caching vs per-I/O registration (Section 3 / 5.1);
* NIC TLB size and miss penalty (Sections 4.1 / 4.2.2);
* batch I/O amortization of the client's per-I/O RPC cost (Section 2.2);
* capability verification cost (Section 4 — implemented here although the
  paper's prototype omitted capabilities).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..cluster import Cluster
from ..hw.nic import NotifyMode
from ..params import KB, Params, default_params
from ..sim import LatencyStats
from ..workloads.postmark import PostMarkWorkload, read_transaction
from .figures import (_response_time, fig7_cell, postmark_workload,
                      stream_cell)


def ablation_polling(params: Optional[Params] = None,
                     blocks_per_file: int = 512) -> Dict[str, Dict[str, float]]:
    """DAFS server notification mode at 4 KB blocks (Fig. 7 text)."""
    params = params or default_params()
    out: Dict[str, Dict[str, float]] = {}
    for label, mode in [("interrupts", NotifyMode.BLOCK),
                        ("polling", NotifyMode.POLL)]:
        dafs, odafs = (fig7_cell(params, system, 4, blocks_per_file,
                                 mode)["throughput_mb_s"]
                       for system in ("dafs", "odafs"))
        out[label] = {
            "dafs_mb_s": dafs,
            "odafs_mb_s": odafs,
            "odafs_gain": odafs / dafs - 1.0,
        }
    return out


def ablation_ordma_hit_rate(params: Optional[Params] = None,
                            server_cache_fractions: Iterable[float] =
                            (1.0, 0.5, 0.25, 0.1),
                            n_files: int = 256,
                            transactions: int = 1200
                            ) -> Dict[float, Dict[str, float]]:
    """Shrink the server cache below the file set: ORDMA faults rise and
    the ODAFS advantage collapses into disk latency (Section 4.2.2)."""
    params = params or default_params()
    out: Dict[float, Dict[str, float]] = {}
    for fraction in server_cache_fractions:
        per_system = {}
        for system in ("dafs", "odafs"):
            workload = postmark_workload(
                params, system, n_files, transactions,
                server_cache_blocks=max(4, int(n_files * fraction)),
                client_cache_blocks=max(1, n_files // 8))
            per_system[system] = workload.run()["txns_per_s"]
        # The loop ends on ODAFS, whose client counts the ORDMA faults.
        stats = workload.cluster.clients[0].stats
        faults = stats.get("ordma_faults")
        total = faults + stats.get("ordma_reads")
        out[fraction] = {
            "dafs_txns_s": per_system["dafs"],
            "odafs_txns_s": per_system["odafs"],
            "odafs_gain": per_system["odafs"] / per_system["dafs"] - 1.0,
            "ordma_fault_rate": faults / total if total else 0.0,
        }
    return out


def ablation_directory_policy(params: Optional[Params] = None,
                              n_files: int = 512,
                              directory_fraction: float = 0.2,
                              transactions: int = 3000
                              ) -> Dict[str, Dict[str, float]]:
    """LRU vs Multi-Queue directory replacement under a hot/cold mix.

    The access stream is 80% over a hot eighth of the files and 20%
    scans — the pattern MQ is designed for (Section 4.2's suggestion).
    The directory holds only ``directory_fraction`` of the file set.
    """
    params = params or default_params()
    out: Dict[str, Dict[str, float]] = {}
    directory_capacity = max(8, int(n_files * directory_fraction))
    for policy in ("lru", "mq"):
        cluster = Cluster(params.copy(), system="odafs", block_size=4 * KB,
                          server_cache_blocks=n_files + 8,
                          client_kwargs={
                              "cache_blocks": max(1, n_files // 16),
                              "directory_capacity": directory_capacity,
                              "directory_policy": policy,
                          })
        workload = _HotColdPostMark(cluster, n_files=n_files,
                                    transactions=transactions)
        workload.setup()
        result = workload.run()
        client = cluster.clients[0]
        out[policy] = {
            "txns_per_s": result["txns_per_s"],
            "directory_hit_ratio": client.directory.hit_ratio(),
            "ordma_reads": client.stats.get("ordma_reads"),
            "rpc_fills": client.stats.get("rpc_fills"),
        }
    return out


class _HotColdPostMark(PostMarkWorkload):
    """PostMark with an 80/20 hot-set access skew plus periodic scans."""

    HOT_FRACTION = 0.125
    HOT_PROBABILITY = 0.8

    def _pick(self) -> int:
        hot = max(1, int(self.n_files * self.HOT_FRACTION))
        if self.rng.random() < self.HOT_PROBABILITY:
            return self.rng.randrange(hot)
        return self.rng.randrange(self.n_files)

    def _one_transaction(self, client, warming, index):
        if warming:
            result = yield from super()._one_transaction(client, warming,
                                                         index)
            return result
        yield from read_transaction(client, self._name(self._pick()))
        return "read"


def ablation_registration_cache(params: Optional[Params] = None,
                                blocks: int = 384,
                                block_kb: int = 64
                                ) -> Dict[str, Dict[str, float]]:
    """NFS hybrid with and without registration caching (Section 3)."""
    params = params or default_params()
    return {label: stream_cell(params, "nfs-hybrid", block_kb, blocks,
                               client_kwargs={"cache_registrations": cached})
            for label, cached in [("cached", True), ("per_io", False)]}


def ablation_nic_tlb(params: Optional[Params] = None,
                     tlb_sizes: Iterable[int] = (1 << 20, 512, 128, 32),
                     n_blocks: int = 256,
                     miss_penalty_us: float = 200.0
                     ) -> Dict[int, Dict[str, float]]:
    """ORDMA response time as the NIC TLB shrinks (Section 4.2.2).

    Uses a reduced miss penalty (``miss_penalty_us``) representing the
    NIC improvements the paper anticipates (big TLBs, memory-bus NICs);
    the prototype's 9 ms penalty simply multiplies the same curve.
    """
    params = params or default_params()
    out: Dict[int, Dict[str, float]] = {}
    for entries in tlb_sizes:
        p = params.copy()
        p.nic.tlb_entries = entries
        p.nic.tlb_miss_ordma_us = miss_penalty_us
        block = 4 * KB
        cluster = Cluster(p, system="odafs", block_size=block,
                          server_cache_blocks=n_blocks + 8,
                          server_preload_tlb=False,
                          client_kwargs={"cache_blocks": 8})
        cluster.create_file("micro", n_blocks * block)
        client = cluster.clients[0]
        stats = LatencyStats()
        rng = cluster.rand.stream("tlb-ablation")
        order = list(range(n_blocks))
        rng.shuffle(order)

        def main():
            yield from client.open("micro")
            for i in range(n_blocks):  # pass 1: RPC fills the directory
                yield from client.read("micro", i * block, block)
            for i in range(n_blocks):  # pass 2: ORDMA warms the NIC TLB
                yield from client.read("micro", i * block, block)
            tlb = cluster.server_host.nic.tlb
            tlb.hits = tlb.misses = 0
            for i in order:  # pass 3 (random): measured
                start = cluster.sim.now
                yield from client.read("micro", i * block, block)
                stats.record(cluster.sim.now - start)
            return stats.mean

        mean = cluster.sim.run_process(main())
        tlb = cluster.server_host.nic.tlb
        out[entries] = {
            "mean_response_us": mean,
            "tlb_hit_rate": tlb.hit_rate,
        }
    return out


def ablation_batch_io(params: Optional[Params] = None,
                      batch_sizes: Iterable[int] = (1, 4, 16),
                      total_reads: int = 256
                      ) -> Dict[int, Dict[str, float]]:
    """Batch I/O: client CPU per I/O falls as the RPC is amortized."""
    params = params or default_params()
    out: Dict[int, Dict[str, float]] = {}
    block = 4 * KB
    for batch in batch_sizes:
        cluster = Cluster(params.copy(), system="dafs", block_size=block,
                          server_cache_blocks=total_reads + 8,
                          client_kwargs={"cache_blocks": 0})
        cluster.create_file("f", total_reads * block)
        client = cluster.clients[0]

        def main():
            buffers = [client.host.mem.alloc(block) for _ in range(batch)]
            client.host.cpu.reset_measurement()
            start = cluster.sim.now
            for group in range(total_reads // batch):
                extents = [((group * batch + j) * block, block, buffers[j])
                           for j in range(batch)]
                if batch == 1:
                    yield from client.read("f", extents[0][0], block,
                                           buffers[0])
                else:
                    yield from client.read_batch("f", extents)
            elapsed = cluster.sim.now - start
            busy = client.host.cpu.busy.busy_us
            return {"client_us_per_io": busy / total_reads,
                    "elapsed_us_per_io": elapsed / total_reads}

        out[batch] = cluster.sim.run_process(main())
    return out


def ablation_eager_vs_lazy_refs(params: Optional[Params] = None,
                                n_blocks: int = 256
                                ) -> Dict[str, Dict[str, float]]:
    """Eager vs lazy ORDMA directory building (Section 4.2 principle (a):
    "directories can be built either eagerly when clients ask the server
    for memory references, or lazily when the server piggybacks").

    Measures one cold pass over a warm file: the lazy client pays a full
    RPC per block the first time; the eager client fetches every
    reference in one RPC up front and runs the pass over ORDMA.
    """
    params = params or default_params()
    out: Dict[str, Dict[str, float]] = {}
    for strategy in ("lazy", "eager"):
        block = 4 * KB
        cluster = Cluster(params.copy(), system="odafs", block_size=block,
                          server_cache_blocks=n_blocks + 8,
                          client_kwargs={"cache_blocks": 8})
        cluster.create_file("f", n_blocks * block)
        client = cluster.clients[0]

        def main():
            yield from client.open("f")
            if strategy == "eager":
                yield from client.prefetch_refs("f")
            start = cluster.sim.now
            for i in range(n_blocks):
                yield from client.read("f", i * block, block)
            elapsed = cluster.sim.now - start
            return {
                "first_pass_us_per_read": elapsed / n_blocks,
                "ordma_reads": client.stats.get("ordma_reads"),
                "rpc_fills": client.stats.get("rpc_fills"),
                "server_cpu_us_per_read":
                    cluster.server_host.cpu.busy.busy_us / n_blocks,
            }

        out[strategy] = cluster.sim.run_process(main())
    return out


def ablation_overhead_sensitivity(params: Optional[Params] = None,
                                  scales: Iterable[float] = (0.5, 1.0,
                                                             2.0, 4.0),
                                  n_clients: int = 2,
                                  ops_per_client: int = 400
                                  ) -> Dict[str, Dict[float, float]]:
    """SFS-mix server throughput sensitivity to each overhead component.

    Reproduces Martin & Culler's qualitative result the paper cites
    (Section 2.3): scale one overhead knob at a time — per-I/O host CPU
    cost, network latency, link bandwidth — and measure delivered NFS
    operation throughput. Throughput should be far more sensitive to host
    CPU overhead than to latency or (at this message size) bandwidth.
    Returns {knob: {scale: ops_per_s}}.
    """
    from ..workloads.sfs import SFSWorkload

    params = params or default_params()

    def run(p: Params) -> float:
        cluster = Cluster(p, system="nfs", block_size=4 * KB,
                          server_cache_blocks=512, n_clients=n_clients)
        workload = SFSWorkload(cluster, ops_per_client=ops_per_client)
        workload.setup()
        return workload.run()["ops_per_s"]

    out: Dict[str, Dict[float, float]] = {
        "cpu_overhead": {}, "latency": {}, "bandwidth": {},
    }
    for scale in scales:
        p = params.copy()
        p.proto.fs_op_us *= scale
        p.proto.udp_frag_us *= scale
        p.proto.rpc_marshal_us *= scale
        p.host.interrupt_us *= scale
        p.host.wakeup_us *= scale
        out["cpu_overhead"][scale] = run(p)

        p = params.copy()
        p.net.switch_us *= scale
        p.net.propagation_us *= scale
        out["latency"][scale] = run(p)

        p = params.copy()
        p.net.link_bw /= scale  # scale>1 means *less* bandwidth
        out["bandwidth"][scale] = run(p)
    return out


def ablation_memory_pressure(params: Optional[Params] = None,
                             reclaim_intervals_us: Iterable[float] =
                             (0.0, 50_000.0, 10_000.0, 2_000.0),
                             n_files: int = 256,
                             transactions: int = 1200
                             ) -> Dict[float, Dict[str, float]]:
    """ODAFS under server VM pressure: a reclaim daemon invalidates cold
    exported blocks, so cached references go stale and ORDMA faults rise
    (Section 4.2.1's consistency loop, exercised dynamically).

    ``0.0`` means no pressure. Reclaimed blocks are re-fetched from disk,
    so heavy pressure degrades everything; the interesting signal is the
    rising fault rate with all data still delivered correctly.
    """
    from ..nas.server.vm_pressure import MemoryPressure

    params = params or default_params()
    out: Dict[float, Dict[str, float]] = {}
    for interval in reclaim_intervals_us:
        workload = postmark_workload(params, "odafs", n_files, transactions,
                                     server_cache_blocks=n_files + 8,
                                     client_cache_blocks=max(1, n_files // 4))
        cluster = workload.cluster
        proc = cluster.sim.process(workload._main())
        daemon = None
        if interval > 0:
            daemon = MemoryPressure(cluster.sim, cluster.cache,
                                    interval_us=interval,
                                    rng=cluster.rand.stream("pressure"))
            daemon.start(stop_on=proc)
        cluster.sim.run()
        result = proc.value
        client = cluster.clients[0]
        faults = client.stats.get("ordma_faults")
        ordma = client.stats.get("ordma_reads")
        total = faults + ordma
        out[interval] = {
            "txns_per_s": result["txns_per_s"],
            "ordma_fault_rate": faults / total if total else 0.0,
            "reclaimed": (daemon.stats.get("reclaimed")
                          if daemon is not None else 0),
        }
    return out


def ablation_client_scaling(params: Optional[Params] = None,
                            client_counts: Iterable[int] = (1, 2, 3),
                            blocks_per_file: int = 384
                            ) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Server throughput and per-read latency as clients are added.

    The paper's motivation for reducing server per-I/O overhead: "servers
    receive I/O load from multiple clients" (Section 2.2), and a loaded
    server adds queueing delay to response time (Section 2.3). DAFS
    saturates the server CPU and queues; ODAFS scales to the link.
    """
    params = params or default_params()
    out: Dict[str, Dict[int, Dict[str, float]]] = {}
    for system in ("dafs", "odafs"):
        out[system] = {}
        for n in client_counts:
            result = fig7_cell(params, system, 4, blocks_per_file,
                               n_clients=n)
            reads_per_client = blocks_per_file // 8
            elapsed = n * blocks_per_file * 4 * KB / result["throughput_mb_s"]
            # Mean app-read completion time seen by one client: every
            # client runs for the whole measured pass, issuing
            # reads_per_client synchronous app reads (queueing delay at a
            # loaded server shows up here — Section 2.3).
            out[system][n] = {**result,
                              "mean_read_us": elapsed / reads_per_client}
    return out


def ablation_read_write_mix(params: Optional[Params] = None,
                            read_ratios: Iterable[float] =
                            (1.0, 0.9, 0.7, 0.5),
                            n_files: int = 256,
                            transactions: int = 1500
                            ) -> Dict[float, Dict[str, float]]:
    """ODAFS gain vs read/write mix.

    Writes require server CPU regardless of ORDMA (metadata updates,
    block status — Section 4.2.2 lists "small read-write ratio" as an
    ODAFS limitation), so the gain shrinks as writes grow.
    """
    params = params or default_params()
    out: Dict[float, Dict[str, float]] = {}
    for ratio in read_ratios:
        dafs, odafs = (
            postmark_workload(params, system, n_files, transactions,
                              server_cache_blocks=n_files + 8,
                              client_cache_blocks=max(1, n_files // 4),
                              read_ratio=ratio).run()
            for system in ("dafs", "odafs"))
        out[ratio] = {
            "dafs_txns_s": dafs["txns_per_s"],
            "odafs_txns_s": odafs["txns_per_s"],
            "odafs_gain": odafs["txns_per_s"] / dafs["txns_per_s"] - 1.0,
            "odafs_server_cpu": odafs["server_cpu"],
        }
    return out


def ablation_tcp_transport(params: Optional[Params] = None,
                           blocks: int = 192,
                           block_kb: int = 64
                           ) -> Dict[str, Dict[str, float]]:
    """NFS over UDP vs over host-resident TCP (Section 5's justification
    for UDP: TCP's per-segment stateful processing costs more than the
    offloaded-UDP configuration).

    Both runs use the standard copy-through-the-buffer-cache NFS client;
    only the transport differs.
    """
    from ..fs.disk import Disk
    from ..fs.files import FileSystem
    from ..hw.host import Host
    from ..nas.client.nfs import NFSClient
    from ..nas.server.filecache import ServerFileCache
    from ..nas.server.server import BaseFileServer
    from ..net.link import Switch
    from ..proto.tcp import TCPStack
    from ..sim import Simulator
    from ..workloads.sequential import SequentialReadWorkload

    params = params or default_params()
    block = block_kb * KB
    # UDP is the testbed configuration: the Fig. 3 stream itself.
    out = {"udp": stream_cell(params, "nfs", block_kb, blocks)}

    # --- TCP ------------------------------------------------------------
    p = params.copy()
    sim = Simulator()
    switch = Switch(sim, p.net)
    server_host = Host(sim, p, switch, "server")
    client_host = Host(sim, p, switch, "client0")
    server_stack = TCPStack(server_host)
    client_stack = TCPStack(client_host)
    listener = server_stack.listen(2049)
    conns = {}

    def dial():
        conns["client"] = yield from client_stack.connect("server", 2049)

    def serve():
        conns["server"] = yield from listener.accept()

    sim.process(dial())
    sim.process(serve())
    sim.run()

    fs = FileSystem(block)
    disk = Disk(sim, p.storage)
    cache = ServerFileCache(server_host, block, blocks + 8)
    server = BaseFileServer(server_host, fs, disk, cache,
                            conns["server"], name="nfs-tcp")
    server.start()
    fs.create("stream", blocks * block)
    server.warm("stream")
    client = NFSClient(client_host, "server", transport=conns["client"])

    class _Shim:
        """Minimal cluster facade for the workload driver."""

        def __init__(self):
            self.sim = sim
            self.clients = [client]
            self.client_hosts = [client_host]
            self.server_host = server_host

        def reset_measurements(self):
            server_host.cpu.reset_measurement()
            client_host.cpu.reset_measurement()

        def client_cpu_utilization(self, index=0):
            return client_host.cpu.utilization()

        def server_cpu_utilization(self):
            return server_host.cpu.utilization()

    result = SequentialReadWorkload(_Shim(), "stream", blocks * block,
                                    block, window=16).run()
    out["tcp"] = {"throughput_mb_s": result["throughput_mb_s"],
                  "client_cpu": result["client_cpu"]}
    return out


def ablation_capabilities(params: Optional[Params] = None,
                          n_blocks: int = 256) -> Dict[str, float]:
    """ORDMA response time with and without capability checks."""
    params = params or default_params()
    with_caps, without = (
        _response_time(params, "odafs", "direct", n_blocks, n_blocks,
                       use_capabilities=caps) for caps in (True, False))
    return {"with_capabilities_us": with_caps,
            "without_capabilities_us": without,
            "overhead_us": with_caps - without}


# ---------------------------------------------------------------------------
# Study registry: every ablation as a named, independently runnable point
# ---------------------------------------------------------------------------

#: name -> (function, quick kwargs, full kwargs). The kwargs mirror what
#: ``repro-bench ablations [--quick]`` has always used; keeping them here
#: lets the CLI, the parallel runner, and tests share one source of truth.
STUDIES = {
    "polling": (ablation_polling,
                {"blocks_per_file": 256}, {"blocks_per_file": 512}),
    "ordma_hit_rate": (ablation_ordma_hit_rate,
                       {"transactions": 600}, {"transactions": 1200}),
    "directory_policy": (ablation_directory_policy,
                         {"transactions": 1200}, {"transactions": 3000}),
    "registration_cache": (ablation_registration_cache,
                           {"blocks": 192}, {"blocks": 384}),
    "nic_tlb": (ablation_nic_tlb, {"n_blocks": 128}, {"n_blocks": 256}),
    "batch_io": (ablation_batch_io,
                 {"total_reads": 128}, {"total_reads": 256}),
    "overhead_sensitivity": (ablation_overhead_sensitivity,
                             {"ops_per_client": 200},
                             {"ops_per_client": 400}),
    "memory_pressure": (ablation_memory_pressure,
                        {"transactions": 600, "n_files": 128},
                        {"transactions": 1200, "n_files": 256}),
    "client_scaling": (ablation_client_scaling,
                       {"blocks_per_file": 192}, {"blocks_per_file": 384}),
    "read_write_mix": (ablation_read_write_mix,
                       {"transactions": 800, "n_files": 128},
                       {"transactions": 1500, "n_files": 256}),
    "tcp_transport": (ablation_tcp_transport,
                      {"blocks": 96}, {"blocks": 192}),
    "eager_vs_lazy_refs": (ablation_eager_vs_lazy_refs,
                           {"n_blocks": 128}, {"n_blocks": 256}),
    "capabilities": (ablation_capabilities,
                     {"n_blocks": 128}, {"n_blocks": 256}),
}


def _run_study(spec):
    """One study, shaped for :func:`repro.bench.runner.run_points`."""
    from .runner import base_params

    name, quick = spec
    fn, quick_kwargs, full_kwargs = STUDIES[name]
    return fn(params=base_params(),
              **(quick_kwargs if quick else full_kwargs))


def collect(params: Optional[Params] = None, quick: bool = False,
            jobs: Optional[int] = None,
            studies: Optional[Iterable[str]] = None) -> Dict[str, dict]:
    """Run the named ``studies`` (default: all), optionally in parallel.

    Returns {study name: study result} in registry order. Each study
    builds its own clusters from ``params``, so the fan-out changes
    nothing about the numbers — only the wall-clock.
    """
    from .runner import run_points

    names = list(studies) if studies is not None else list(STUDIES)
    for name in names:
        if name not in STUDIES:
            raise ValueError(f"unknown study {name!r}; "
                             f"one of {sorted(STUDIES)}")
    base = params if params is not None else default_params()
    results = run_points(_run_study, [(n, quick) for n in names],
                         jobs=jobs, base=base)
    return dict(zip(names, results))
