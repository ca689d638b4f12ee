"""Concurrency stress: multiple clients, mixed ops, integrity checked.

Random reads and writes from three clients against one ODAFS server, with
a VM-pressure daemon churning exports underneath — the full optimistic
machinery under concurrent load. Invariants:

* every read returns the correct block identity (never another block);
* the block versions one client observes never go backwards;
* the simulation drains (no deadlock, no leaked processes).
"""

import pytest

from repro.cluster import Cluster
from repro.nas.server.vm_pressure import MemoryPressure
from repro.params import KB


N_FILES = 8
BLOCKS_PER_FILE = 8
BLOCK = 4 * KB


@pytest.fixture
def cluster():
    c = Cluster(system="odafs", n_clients=3, block_size=BLOCK,
                server_cache_blocks=N_FILES * BLOCKS_PER_FILE + 8,
                client_kwargs={"cache_blocks": 4})
    for i in range(N_FILES):
        c.create_file(f"s{i}", BLOCKS_PER_FILE * BLOCK)
    return c


def test_mixed_ops_under_pressure_keep_integrity(cluster):
    sim = cluster.sim
    violations = []
    ops_done = []

    def client_loop(idx, client):
        rng = cluster.rand.stream(f"stress{idx}")
        for _ in range(150):
            fname = f"s{rng.randrange(N_FILES)}"
            block = rng.randrange(BLOCKS_PER_FILE)
            if rng.random() < 0.25:
                yield from client.write(fname, block * BLOCK, BLOCK)
            else:
                data = yield from client.read(fname, block * BLOCK, BLOCK)
                if data[0] != fname or data[1] != block:
                    violations.append((fname, block, data))
            ops_done.append(idx)

    procs = [sim.process(client_loop(i, c))
             for i, c in enumerate(cluster.clients)]
    daemon = MemoryPressure(sim, cluster.cache, interval_us=1500.0,
                            rng=cluster.rand.stream("churn"))
    daemon.start(stop_on=procs[0])
    sim.run()
    assert all(p.triggered and p.ok for p in procs)
    assert violations == []
    assert len(ops_done) == 450


def test_version_monotonicity_without_locks(cluster):
    """Versions a single client observes on one block never go
    backwards (the server applies writes in order; client cache
    invalidation on write prevents stale rereads of own writes)."""
    sim = cluster.sim
    regressions = []

    def actor(client, writes):
        last_seen = -1
        for i in range(60):
            if writes and i % 3 == 0:
                yield from client.write("s1", 0, BLOCK)
            data = yield from client.read("s1", 0, BLOCK)
            if data[2] < last_seen:
                regressions.append((last_seen, data[2]))
            last_seen = max(last_seen, data[2])

    procs = [sim.process(actor(cluster.clients[0], True)),
             sim.process(actor(cluster.clients[1], False))]
    sim.run()
    assert all(p.triggered and p.ok for p in procs)
    assert regressions == []
