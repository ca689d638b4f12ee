"""Fast-lane dispatch order and kernel byte-identity pins.

The run-queue optimization routes every at-now event (zero-delay
timeouts, ``succeed()``/``fail()`` at the current time, trampolines)
past the ``(time, seq)`` heap into a FIFO. The kernel's contract is
unchanged: events dispatch in exact ``(time, seq)`` order, where seq is
the global scheduling counter. These tests pin that contract two ways —
a randomized property test that interleaves heap and run-queue events
at equal timestamps, and end-to-end (ops, sim_us, events) digest
triples whose ops and sim_us were captured on the pre-fast-lane kernel
(commit 11f4674). They also pin the rule that a CPU or NIC-firmware
service (``Resource.hold``) is exactly one kernel event, that a frame
crosses the switch in one kernel event (two onto a busy receive link),
and that model code starts work nothing waits on as a detached task
(``Simulator.spawn``), which draws no completion event.
"""

import ast
import pathlib
import random

import pytest

import repro
from repro.cluster import Cluster
from repro.hw.cpu import CPU
from repro.net import Switch
from repro.net.packet import Message, MsgKind, fragment
from repro.params import KB, HostParams, NetworkParams, default_params
from repro.sim import Simulator


def _expected_and_observed(seed, ticks=30, max_batch=4):
    """Build a random interleave of heap and run-queue events.

    A driver walks the clock one microsecond per tick. At each tick it
    schedules a random batch mixing delay-0 timeouts (run-queue),
    delay-1/delay-2 timeouts (heap entries landing at a *future* tick,
    where delay-2 entries scheduled a tick earlier collide with delay-1
    entries at the same timestamp), and bare events succeeded at now
    (run-queue). After every creation the simulator's seq counter holds
    the seq just assigned, so the expected global order is simply the
    records sorted by ``(fire_time, seq)``.
    """
    rng = random.Random(seed)
    sim = Simulator()
    observed = []
    scheduled = []  # (fire_time, seq, label)

    def record(label):
        return lambda ev: observed.append(label)

    def driver():
        serial = 0
        for _ in range(ticks):
            for _ in range(rng.randint(1, max_batch)):
                serial += 1
                label = f"ev{serial}"
                kind = rng.randrange(3)
                if kind == 0:
                    delay = 0.0  # run-queue fast lane
                elif kind == 1:
                    delay = float(rng.randint(1, 2))  # heap
                else:
                    ev = sim.event()
                    ev.add_callback(record(label))
                    ev.succeed()  # at-now success: run-queue
                    scheduled.append((sim.now, sim._seq, label))
                    continue
                t = sim.timeout(delay)
                t.add_callback(record(label))
                scheduled.append((sim.now + delay, sim._seq, label))
            yield sim.timeout(1.0)
        # Let every outstanding delay-2 timeout fire.
        yield sim.timeout(3.0)

    sim.run_process(driver())
    expected = [label for _t, _s, label in sorted(scheduled)]
    return expected, observed


@pytest.mark.parametrize("seed", [0, 7, 1234, 99991])
def test_interleaved_heap_and_runq_dispatch_in_seq_order(seed):
    """At equal timestamps, heap entries (scheduled earlier, smaller
    seq) must dispatch before run-queue entries, and run-queue FIFO
    order must equal seq order — i.e. exact (time, seq) dispatch."""
    expected, observed = _expected_and_observed(seed)
    assert observed == expected
    assert len(observed) > 20  # the interleave actually exercised both


def test_zero_delay_timeout_after_heap_entry_at_same_time():
    """Directed version of the property: a heap timeout landing at T
    was scheduled before the clock reached T, so it outranks any
    zero-delay timeout created at T — even though the zero-delay one
    sits in the run-queue, which is checked first by the loop."""
    sim = Simulator()
    order = []

    def early():
        yield sim.timeout(1.0)  # heap entry firing at t=1
        order.append("heap")

    def late():
        yield sim.timeout(1.0)
        yield sim.timeout(0.0)  # run-queue entry created at t=1
        order.append("runq")

    # ``late`` is scheduled first, so its wake-up at t=1 precedes
    # ``early``'s — but its zero-delay hop must still come after every
    # heap entry for t=1 that predates the clock's arrival.
    sim.process(late())
    sim.process(early())
    sim.run()
    assert order == ["heap", "runq"]


# Workload: two clients, 48x4KB warm file, two sequential passes each.
# (ops, sim_us, events) — events is the kernel's final seq counter, so
# any change to scheduling order, count, or timing breaks these. ops and
# sim_us are still the pre-fast-lane kernel's (commit 11f4674), byte for
# byte. events were re-pinned (nfs 18232 -> 12322, odafs 15134 -> 11643)
# when CPU and NIC-firmware services became one kernel event each
# (Resource.hold) instead of a grant plus a timeout, again (nfs
# 12322 -> 10576, odafs 11643 -> 9707) when work nothing waits on became
# detached tasks (Simulator.spawn) with no completion event, and a third
# time (nfs 10576 -> 9025, odafs 9707 -> 7580) when a frame crossed the
# switch in one kernel event and a NIC send started from its descriptor
# fetch; ops and sim_us did not move any time.
KERNEL_PINS = {
    "nfs": (192, 30188.019111110654, 9025),
    "odafs": (192, 13409.801777777688, 7580),
}
PIN_BLOCKS = 48


def _smallio_cluster(system, n_servers=1):
    """Run the pinned smallio workload; returns the quiesced cluster."""
    blocks, block = PIN_BLOCKS, 4 * KB
    kwargs = ({"cache_blocks": 8} if system in ("dafs", "odafs")
              else {"bcache_entries": 4})
    params = default_params()
    params.shard.n_servers = n_servers
    cluster = Cluster(params, system=system, block_size=block,
                      n_clients=2, server_cache_blocks=blocks + 8,
                      client_kwargs=kwargs)
    cluster.create_file("pin", blocks * block)

    def reader(idx):
        client = cluster.clients[idx]
        yield from client.open("pin")
        for _ in range(2):
            for i in range(blocks):
                yield from client.read("pin", i * block, block)

    def main():
        procs = [cluster.sim.process(reader(i), name=f"pin{i}")
                 for i in range(2)]
        yield cluster.sim.all_of(procs)

    cluster.sim.run_process(main())
    return cluster


@pytest.mark.parametrize("system", sorted(KERNEL_PINS))
def test_kernel_digest_identical_to_pre_fastlane_kernel(system):
    """An nfs and an odafs smallio run must reproduce the pinned
    (ops, sim_us, events) triple: ops and sim_us from the pre-fast-lane
    kernel, events from the kernel with one event per service, detached
    tasks, and one event per frame across the switch."""
    cluster = _smallio_cluster(system)
    ops = 2 * 2 * PIN_BLOCKS  # two clients, two passes each
    assert (ops, cluster.sim.now, cluster.sim._seq) == KERNEL_PINS[system]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cpu_service_is_one_kernel_event(n):
    """N processes each charging one ``cpu.execute`` at t=0 draw exactly
    N seqs beyond their own bootstrap and finish events, whether the
    services run at once (N=1) or queue for the core."""
    sim = Simulator()
    cpu = CPU(sim, HostParams())

    def proc():
        yield from cpu.execute(10.0)

    for _ in range(n):
        sim.process(proc())
    sim.run()
    assert sim.now == 10.0 * n
    assert sim._seq == 2 * n + n


T0 = 10.0


def _full_frames_to_c(srcs):
    """At ``T0``, send one full GM frame to host c from each host in
    ``srcs``. Returns c's arrival times, the kernel events drawn from the
    first ``transmit`` on, and the fabric's parameters."""
    net = NetworkParams()
    sim = Simulator()
    switch = Switch(sim, net)
    switch.attach("a")
    switch.attach("b")
    arrivals = []
    switch.attach("c").set_handler(lambda frame: arrivals.append(sim.now))
    first_seq = []

    def send():
        first_seq.append(sim._seq)
        for src in srcs:
            msg = Message(MsgKind.GM_SEND, src, "c", net.gm_mtu)
            switch.transmit(src, fragment(msg, net.gm_mtu,
                                          net.gm_header_bytes)[0])

    sim.call_at(T0, send)
    sim.run()
    return arrivals, sim._seq - first_seq[0], net


def test_frame_over_idle_links_is_one_kernel_event():
    """From ``Switch.transmit`` to the receiving port, a frame over idle
    links costs one kernel event, its switch exit, and arrives at exactly
    the time a timeout per leg reached: serialization, then the switch
    and two propagation delays."""
    arrivals, events, net = _full_frames_to_c(["a"])
    wire = net.gm_mtu + net.gm_header_bytes
    assert events == 1
    assert arrivals == [(T0 + wire / net.link_bw)
                        + (net.switch_us + 2 * net.propagation_us)]


def test_frame_onto_a_busy_receive_link_is_two_kernel_events():
    """A second frame converging on c's receive link exits at the same
    instant, finds the link taken and is handed over one serialization
    later: two kernel events, its exit and the hand-over."""
    arrivals, events, net = _full_frames_to_c(["a", "b"])
    wire = net.gm_mtu + net.gm_header_bytes
    assert events == 1 + 2
    assert arrivals == [arrivals[0], arrivals[0] + wire / net.link_bw]


@pytest.mark.parametrize("n_servers", [1, 2])
@pytest.mark.parametrize("system", ["nfs", "dafs", "odafs"])
def test_quiesced_run_leaves_no_held_or_queued_service(system, n_servers):
    """Every hold frees its slot: after a run, no host's CPU core or NIC
    firmware is held or has a claim waiting."""
    cluster = _smallio_cluster(system, n_servers)
    hosts = cluster.server_hosts + cluster.client_hosts
    assert len(cluster.server_hosts) == n_servers
    for host in hosts:
        for res in (host.cpu._core, host.nic.firmware):
            assert (res.count, res.queue_len) == (0, 0), res.name


def test_model_code_spawns_work_nothing_waits_on():
    """No expression statement in ``src/repro`` is a bare
    ``….process(...)`` call. A ``Process`` whose handle is dropped still
    allocates the object and schedules a completion event nobody
    observes; model code starts such work with ``sim.spawn``. ``bench/``
    is exempt: its kernel microbenchmarks time ``Process`` dispatch on
    purpose."""
    root = pathlib.Path(repro.__file__).parent
    sites = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "bench":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr == "process":
                sites.append(f"{rel}:{node.lineno}")
    assert sites == []
