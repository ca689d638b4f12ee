"""Unit tests for the CPU model."""

import pytest

from repro.hw.cpu import CPU, PRIO_INTERRUPT
from repro.params import HostParams
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cpu(sim):
    return CPU(sim, HostParams())


def test_execute_charges_time_and_busy(sim, cpu):
    def proc():
        yield from cpu.execute(10.0, category="proto")
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(10.0)
    assert cpu.busy.busy_us == pytest.approx(10.0)
    assert cpu.busy.by_category["proto"] == pytest.approx(10.0)


def test_execute_zero_cost_is_free(sim, cpu):
    def proc():
        yield from cpu.execute(0.0)
        return sim.now

    # A zero-cost execute must not even yield once into the queue.
    gen = proc()
    with pytest.raises(StopIteration):
        next(gen)


def test_execute_negative_rejected(sim, cpu):
    def proc():
        yield from cpu.execute(-1.0)

    with pytest.raises(ValueError):
        sim.run_process(proc())


def test_single_core_serializes(sim, cpu):
    done = []

    def proc(tag):
        yield from cpu.execute(10.0)
        done.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert done == [("a", 10.0), ("b", 20.0)]


def test_interrupt_priority_jumps_queue(sim, cpu):
    done = []

    def normal(tag):
        yield from cpu.execute(10.0)
        done.append(tag)

    def intr():
        yield sim.timeout(1.0)
        yield from cpu.execute(2.0, priority=PRIO_INTERRUPT)
        done.append("intr")

    sim.process(normal("n1"))
    sim.process(normal("n2"))
    sim.process(intr())
    sim.run()
    assert done == ["n1", "intr", "n2"]


def test_copy_uses_configured_bandwidths(sim):
    params = HostParams(copy_bw_cached=100.0, copy_bw_uncached=50.0)
    cpu = CPU(sim, params)

    def proc():
        yield from cpu.copy(1000, cached=True)
        cached_done = sim.now
        yield from cpu.copy(1000, cached=False)
        return cached_done, sim.now

    cached_done, total = sim.run_process(proc())
    assert cached_done == pytest.approx(10.0)
    assert total == pytest.approx(30.0)


def test_interrupt_coalescing_skips_entry_cost(sim, cpu):
    def proc():
        yield from cpu.interrupt(coalesce_window_us=50.0)
        first = cpu.busy.busy_us
        yield from cpu.interrupt(coalesce_window_us=50.0)  # coalesced
        second = cpu.busy.busy_us
        yield sim.timeout(100.0)
        yield from cpu.interrupt(coalesce_window_us=50.0)  # window expired
        return first, second, cpu.busy.busy_us

    first, second, third = sim.run_process(proc())
    assert first == pytest.approx(cpu.params.interrupt_us)
    assert second == pytest.approx(first)  # no extra cost
    assert third == pytest.approx(2 * cpu.params.interrupt_us)


def test_utilization_window(sim, cpu):
    def proc():
        yield sim.timeout(50.0)
        cpu.reset_measurement()
        yield from cpu.execute(25.0)
        yield sim.timeout(25.0)
        return cpu.utilization()

    assert sim.run_process(proc()) == pytest.approx(0.5)


def test_canned_paths_charge_expected_costs(sim, cpu):
    p = cpu.params

    def proc():
        yield from cpu.wakeup()
        yield from cpu.poll()
        yield from cpu.syscall()
        return cpu.busy.busy_us

    total = sim.run_process(proc())
    assert total == pytest.approx(p.wakeup_us + p.poll_us + p.syscall_us)
