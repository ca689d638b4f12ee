"""Unit tests for the disk model."""

import pytest

from repro.fs.disk import Disk
from repro.params import StorageParams
from repro.sim import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    disk = Disk(sim, StorageParams(disk_latency_us=1000.0, disk_bw=40.0))
    return sim, disk


def test_read_time_is_latency_plus_transfer(rig):
    sim, disk = rig

    def proc():
        yield from disk.read(4096)
        return sim.now

    elapsed = sim.run_process(proc())
    assert elapsed == pytest.approx(1000.0 + 4096 / 40.0)


def test_spindle_serializes_concurrent_accesses(rig):
    sim, disk = rig
    done = []

    def proc():
        yield from disk.read(0)
        done.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    assert done == [pytest.approx(1000.0), pytest.approx(2000.0)]


def test_stats(rig):
    sim, disk = rig

    def proc():
        yield from disk.read(100)
        yield from disk.read(200)

    sim.run_process(proc())
    assert disk.stats.get("reads") == 2
    assert disk.stats.get("bytes") == 300


def test_negative_size_rejected(rig):
    sim, disk = rig

    def proc():
        yield from disk.read(-1)

    with pytest.raises(ValueError):
        sim.run_process(proc())
