"""Validate the DES kernel against queueing theory.

The whole reproduction rests on the kernel's queues behaving correctly,
so we check the Resource against closed-form results:

* M/M/1: mean time in system W = 1 / (mu - lambda);
* M/D/1: mean wait Wq = rho / (2 mu (1 - rho)), i.e. half of M/M/1's;
* utilization equals rho = lambda / mu.

Statistical tolerances are loose (10-15%) but the runs are long enough
that systematic kernel errors (off-by-one service, lost wakeups, unfair
queues) would blow well past them.
"""

import pytest

from repro.sim import LatencyStats, RandomStreams, Resource, Simulator


def run_queue(lam: float, mu: float, n_jobs: int, deterministic: bool,
              seed: int = 11, kind: str = "request") -> LatencyStats:
    """Drive an open single-server queue; returns time-in-system stats.

    ``kind`` picks how a job takes the server: ``"request"`` (request,
    timeout, release) or ``"hold"`` (one :meth:`Resource.hold`, which
    needs the service time when the job arrives).
    """
    sim = Simulator()
    server = Resource(sim)
    rng = RandomStreams(seed).stream("queueing")
    stats = LatencyStats()

    def job():
        arrived = sim.now
        if kind == "hold":
            yield server.hold(1.0 / mu if deterministic
                              else rng.expovariate(mu))
            stats.record(sim.now - arrived)
            return
        req = server.request()
        yield req
        try:
            service = (1.0 / mu if deterministic
                       else rng.expovariate(mu))
            yield sim.timeout(service)
        finally:
            server.release(req)
        stats.record(sim.now - arrived)

    def source():
        for _ in range(n_jobs):
            yield sim.timeout(rng.expovariate(lam))
            sim.process(job())

    sim.process(source())
    sim.run()
    return stats


def test_mm1_mean_time_in_system():
    lam, mu = 0.5, 1.0  # rho = 0.5 -> W = 1 / (mu - lam) = 2.0
    stats = run_queue(lam, mu, n_jobs=20_000, deterministic=False)
    assert stats.mean == pytest.approx(2.0, rel=0.10)


def test_mm1_higher_load_longer_waits():
    low = run_queue(0.3, 1.0, 8_000, deterministic=False)
    high = run_queue(0.8, 1.0, 8_000, deterministic=False)
    # W(0.8) / W(0.3) = (1/0.2) / (1/0.7) = 3.5
    assert high.mean / low.mean == pytest.approx(3.5, rel=0.25)


@pytest.mark.parametrize("kind", ["request", "hold"])
def test_md1_waits_half_of_mm1(kind):
    """Deterministic service halves the queueing delay (PK formula)."""
    lam, mu = 0.7, 1.0
    mm1 = run_queue(lam, mu, 20_000, deterministic=False)
    md1 = run_queue(lam, mu, 20_000, deterministic=True, kind=kind)
    mm1_wait = mm1.mean - 1.0 / mu
    md1_wait = md1.mean - 1.0 / mu
    assert md1_wait / mm1_wait == pytest.approx(0.5, rel=0.15)


def test_utilization_equals_rho():
    lam, mu, n = 0.6, 1.0, 10_000
    sim = Simulator()
    server = Resource(sim)
    rng = RandomStreams(3).stream("util")
    busy = [0.0]

    def job():
        req = server.request()
        yield req
        try:
            service = rng.expovariate(mu)
            yield sim.timeout(service)
            busy[0] += service
        finally:
            server.release(req)

    def source():
        for _ in range(n):
            yield sim.timeout(rng.expovariate(lam))
            sim.process(job())

    sim.process(source())
    sim.run()
    assert busy[0] / sim.now == pytest.approx(lam / mu, rel=0.05)
