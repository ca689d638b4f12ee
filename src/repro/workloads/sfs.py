"""SPECsfs-like mixed NFS operation workload.

Section 2.3 cites Martin & Culler's finding that "file server throughput
in NFS workloads modeled by SPECsfs is most sensitive to host CPU
overhead" — the premise behind attacking per-I/O cost. This workload
generates the classic SFS operation mix (lookups, getattrs, reads,
writes) from multiple clients against one server and measures delivered
operation throughput, so the sensitivity experiment
(:func:`repro.bench.ablations.ablation_overhead_sensitivity`) can sweep
host overhead parameters and reproduce that qualitative result. Its one
knob is the operation count per client; the file set (``N_FILES`` files
of ``FILE_SIZE``) and the mix are fixed.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

from ..cluster import Cluster
from ..params import KB

#: Operation mix, patterned after the SFS97 distribution (collapsed to
#: the operations our servers implement); the weights sum to 1.
MIX: List[Tuple[str, float]] = [
    ("lookup", 0.27),
    ("getattr", 0.22),
    ("read", 0.32),
    ("write", 0.19),
]
#: Files in the shared set, and the size of each.
N_FILES = 128
FILE_SIZE = 8 * KB


class SFSWorkload:
    """Closed-loop multi-client NFS operation mix."""

    def __init__(self, cluster: Cluster, ops_per_client: int = 500):
        self.cluster = cluster
        self.ops_per_client = ops_per_client
        self.rng = cluster.rand.stream("sfs")
        self.op_counts: Dict[str, int] = {}

    def setup(self) -> None:
        for i in range(N_FILES):
            self.cluster.create_file(self._name(i), FILE_SIZE)

    def _name(self, i: int) -> str:
        return f"sfs{i:05d}"

    def _pick_op(self) -> str:
        roll = self.rng.random()
        acc = 0.0
        for op, weight in MIX:
            acc += weight
            if roll < acc:
                return op
        return MIX[-1][0]

    def _one_op(self, client) -> Generator:
        name = self._name(self.rng.randrange(N_FILES))
        op = self._pick_op()
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if op == "lookup":
            yield from client._call("lookup", {"name": name})
        elif op == "getattr":
            yield from client.getattr(name)
        elif op == "read":
            offset = self.rng.randrange(FILE_SIZE // (4 * KB)) * 4 * KB
            yield from client.read(name, offset, 4 * KB)
        else:  # write
            offset = self.rng.randrange(FILE_SIZE // (4 * KB)) * 4 * KB
            yield from client.write(name, offset, 4 * KB)

    def _client_loop(self, client) -> Generator:
        for _ in range(self.ops_per_client):
            yield from self._one_op(client)

    def run(self) -> Dict[str, float]:
        cluster = self.cluster
        sim = cluster.sim

        def main():
            cluster.reset_measurements()
            start = sim.now
            procs = [sim.process(self._client_loop(client),
                                 name="sfs-client")
                     for client in cluster.clients]
            yield sim.all_of(procs)
            elapsed = sim.now - start
            total_ops = self.ops_per_client * len(cluster.clients)
            return {
                "ops_per_s": total_ops / elapsed * 1e6,
                "server_cpu": cluster.server_cpu_utilization(),
                "op_counts": dict(self.op_counts),
            }

        return sim.run_process(main())
