"""FaultSchedule: construction, immutability, and no random draws."""

import pytest

from repro.cluster import Cluster
from repro.faults import FaultSchedule, Injector


def test_at_sorts_times():
    sched = FaultSchedule.at([300.0, 100.0, 200.0])
    assert sched.times == (100.0, 200.0, 300.0)


def test_at_rejects_negative_times():
    with pytest.raises(ValueError):
        FaultSchedule.at([10.0, -1.0])


def test_at_does_not_consume_rng():
    """Arming and firing a schedule draws from no random stream, so a
    scheduled fault never moves another component's draws."""
    cluster = Cluster(system="nfs")
    inj = Injector(cluster)
    fired = []
    inj.schedule(FaultSchedule.at([2.0, 1.0]),
                 lambda: fired.append(cluster.sim.now))
    streams = dict(cluster.rand._streams)
    states = {name: rng.getstate() for name, rng in streams.items()}
    inj.arm()
    cluster.sim.run()
    assert fired == [1.0, 2.0]
    assert cluster.rand._streams == streams
    assert {name: rng.getstate()
            for name, rng in streams.items()} == states


def test_schedules_are_immutable():
    sched = FaultSchedule.at([1.0])
    with pytest.raises(Exception):
        sched.times = (2.0,)
