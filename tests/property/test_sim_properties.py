"""Property-based tests for the simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.files import FileSystem
from repro.sim import BandwidthPipe, Resource, Simulator, Store


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                          allow_nan=False), max_size=30))
def test_clock_is_monotone_and_exact(delays):
    """Time advances exactly by the scheduled amounts, in order."""
    sim = Simulator()
    observed = []

    def proc():
        for delay in delays:
            yield sim.timeout(delay)
            observed.append(sim.now)

    sim.run_process(proc())
    expected = []
    acc = 0.0
    for delay in delays:
        acc += delay
        expected.append(acc)
    assert observed == pytest.approx(expected)
    assert all(a <= b for a, b in zip(observed, observed[1:]))


def _serve(sim, res, service, priority=0, kind="request"):
    """One service of ``service`` µs on ``res``: a single ``hold()``, or
    the request/timeout/release sequence it replaces (which queues at
    priority 0). Returns the claim that took the slot."""
    if kind == "hold":
        claim = res.hold(service, priority)
        yield claim
        return claim
    assert priority == 0
    claim = res.request()
    yield claim
    try:
        yield sim.timeout(service)
    finally:
        res.release(claim)
    return claim


@pytest.mark.parametrize("kind", ["request", "hold"])
@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
                min_size=1, max_size=20))
def test_resource_conserves_work(kind, services):
    """Jobs that all arrive at t=0 keep the resource busy until the last
    one ends: the makespan is the sum of the service times (work
    conservation)."""
    sim = Simulator()
    res = Resource(sim)
    finished = []

    def user(service):
        yield from _serve(sim, res, service, kind=kind)
        finished.append(sim.now)

    for service in services:
        sim.process(user(service))
    sim.run()
    assert len(finished) == len(services)
    assert max(finished) == pytest.approx(sum(services))


class _GrantLog(Resource):
    """A resource that records every claim it grants, in order."""

    def __init__(self, sim):
        self.granted = []
        self._held = None
        super().__init__(sim)

    @property
    def _holder(self):
        return self._held

    @_holder.setter
    def _holder(self, claim):
        if claim is not None:
            self.granted.append(claim)
        self._held = claim


def _serve_jobs(jobs, kinds):
    """Run ``jobs`` of (arrival, duration, priority) on one resource,
    job ``i`` served by ``kinds[i]``; every arrival is scheduled at t=0.
    Returns per-job (start, end) and the order claims were granted."""
    sim = Simulator()
    res = _GrantLog(sim)
    claims = {}
    times = [None] * len(jobs)

    def user(i, arrival, duration, priority):
        yield sim.timeout(arrival)
        claim = yield from _serve(sim, res, duration, priority, kinds[i])
        claims[claim] = i
        times[i] = (sim.now - duration, sim.now)

    for i, job in enumerate(jobs):
        sim.process(user(i, *job))
    sim.run()
    assert res.count == 0 and res.queue_len == 0
    return times, [claims[claim] for claim in res.granted]


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=1, max_value=20),
                          st.just(0),
                          st.sampled_from(["request", "hold"])),
                min_size=1, max_size=25))
def test_hold_serves_like_request_timeout_release(jobs):
    """``hold`` is one event per service, but it must serve exactly as
    request/timeout/release does: same per-job start and end, same
    grant order — also when both kinds share one resource. Requests
    queue at priority 0, so the holds do too."""
    work = [job[:3] for job in jobs]
    n = len(jobs)
    reference = _serve_jobs(work, ["request"] * n)
    assert _serve_jobs(work, ["hold"] * n) == reference
    assert _serve_jobs(work, [job[3] for job in jobs]) == reference


#: Steps of a random worker: wait a zero or non-zero timeout, hold the
#: shared resource, put to or get from the shared store, wait again on
#: the event it last waited on (by then processed), or start a new
#: instance of a worker further down the program.
_STEPS = st.one_of(
    st.tuples(st.just("timeout"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("hold"), st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("put"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("get")),
    st.tuples(st.just("again")),
    st.tuples(st.just("start"), st.integers(min_value=1, max_value=3)),
)
#: Worker instances one program may start, counting its roots.
_MAX_WORKERS = 24


def _run_workers(program, roots, start):
    """Run ``program`` (one step list per worker), starting its first
    ``roots`` workers at t=0 and every worker with ``sim.<start>``.
    Returns the ``(now, worker, step)`` log, the workers that finished
    in finishing order, and the final seq counter."""
    sim = Simulator()
    res = Resource(sim)
    store = Store(sim)
    log, finished, started = [], [], []

    def launch(i):
        name = f"w{i}.{len(started)}"
        started.append(name)
        getattr(sim, start)(worker(i, name))

    def worker(i, name):
        last = None
        for step, (kind, *args) in enumerate(program[i]):
            log.append((sim.now, name, step))
            if kind == "timeout":
                last = sim.timeout(args[0])
                yield last
            elif kind == "hold":
                last = res.hold(*args)
                yield last
            elif kind == "put":
                store.put((name, args[0]))
            elif kind == "get":
                last = store.get()
                item = yield last
                log.append((sim.now, name, step, item))
            elif kind == "again" and last is not None:
                yield last
            elif kind == "start":
                if i + args[0] < len(program) \
                        and len(started) < _MAX_WORKERS:
                    launch(i + args[0])
        finished.append(name)

    for i in range(min(roots, len(program))):
        launch(i)
    sim.run()
    return log, finished, sim._seq


@settings(max_examples=200)
@given(st.lists(st.lists(_STEPS, max_size=6), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=5))
def test_spawn_dispatches_like_process(program, roots):
    """Starting every worker with ``spawn`` instead of ``process`` must
    not move a single step: same log, same finishers (a worker blocked
    on an empty store never finishes). The only difference is the seq
    counter, one lower per finished task: the completion event a
    process fires and a task does not."""
    log, finished, seq = _run_workers(program, roots, "process")
    spawned = _run_workers(program, roots, "spawn")
    assert spawned[:2] == (log, finished)
    assert seq - spawned[2] == len(finished)


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=100_000),
                min_size=1, max_size=20),
       st.floats(min_value=1.0, max_value=500.0, allow_nan=False))
def test_pipe_serialization_exact(sizes, bandwidth):
    """A FIFO pipe finishes all transfers at exactly sum(size)/bw."""
    sim = Simulator()
    pipe = BandwidthPipe(sim, bandwidth)
    done = []

    def sender(nbytes):
        yield pipe.transfer(nbytes)
        done.append(sim.now)

    for nbytes in sizes:
        sim.process(sender(nbytes))
    sim.run()
    assert max(done) == pytest.approx(sum(sizes) / bandwidth)
    assert pipe.stats_bytes == sum(sizes)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=1 << 22),
       st.integers(min_value=512, max_value=65536),
       st.lists(st.integers(min_value=0, max_value=50), max_size=30))
def test_filesystem_write_versions_are_per_block(size, block_size, writes):
    fs = FileSystem(block_size)
    fs.create("f", size)
    counts = {}
    nblocks = fs.block_count("f")
    for idx in writes:
        if idx < nblocks:
            fs.write_block("f", idx)
            counts[idx] = counts.get(idx, 0) + 1
    for idx in range(nblocks):
        assert fs.block_content("f", idx) == ("f", idx, counts.get(idx, 0))
