"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc()) == 7.5
    assert sim.now == 7.5


def test_zero_delay_timeout_runs_at_same_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        value = yield ev
        return value

    def trigger():
        yield sim.timeout(3.0)
        ev.succeed("payload")

    proc = sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert proc.value == "payload"
    assert sim.now == 3.0


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    proc = sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert proc.value == "caught boom"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("nope"))


def test_unwaited_failed_event_surfaces():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("lost error"))
    with pytest.raises(RuntimeError, match="lost error"):
        sim.run()


def test_process_return_value_propagates():
    sim = Simulator()

    def inner():
        yield sim.timeout(1.0)
        return 42

    def outer():
        value = yield sim.process(inner())
        return value + 1

    assert sim.run_process(outer()) == 43


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def inner():
        yield sim.timeout(1.0)
        raise KeyError("inner failure")

    def outer():
        try:
            yield sim.process(inner())
        except KeyError:
            return "handled"

    assert sim.run_process(outer()) == "handled"


@pytest.mark.parametrize("start", ["process", "spawn"])
def test_unhandled_process_exception_raises_from_run(start):
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    getattr(sim, start)(bad())
    with pytest.raises(RuntimeError, match="unhandled") as excinfo:
        sim.run()
    assert excinfo.type is RuntimeError
    assert sim.now == 1.0


@pytest.mark.parametrize("start", ["process", "spawn"])
def test_yield_non_event_fails_process(start):
    sim = Simulator()

    def bad():
        yield 5  # not an Event

    handle = getattr(sim, start)(bad())
    with pytest.raises(SimulationError, match="'.*bad' yielded non-event 5"):
        sim.run()
    if start == "process":
        assert handle.triggered


def test_spawn_starts_like_process_in_call_order():
    """``spawn`` returns no handle and runs nothing synchronously: a
    task's first step waits on the run queue exactly as a process's
    does, so tasks and processes started at one instant step in call
    order."""
    sim = Simulator()
    order = []

    def worker(tag):
        order.append((sim.now, tag))
        yield sim.timeout(1.0)
        order.append((sim.now, tag))

    assert sim.spawn(worker("a")) is None
    sim.process(worker("b"))
    assert sim.spawn(worker("c")) is None
    assert order == []
    sim.run()
    assert order == [(0.0, "a"), (0.0, "b"), (0.0, "c"),
                     (1.0, "a"), (1.0, "b"), (1.0, "c")]


def test_spawn_after_steps_first_in_the_events_own_dispatch():
    """A task started from an event has no bootstrap: its first step
    runs when the event fires, in that event's (time, seq) place, and it
    goes on as a spawned task. One timeout, one kernel event."""
    sim = Simulator()
    order = []

    def worker():
        order.append((sim.now, "task"))
        yield sim.timeout(1.0)
        order.append((sim.now, "task"))

    assert sim.spawn_after(sim.timeout(2.0), worker()) is None
    sim.timeout(2.0).add_callback(lambda _e: order.append((sim.now, "later")))
    assert sim._seq == 2
    assert order == []
    sim.run()
    assert order == [(2.0, "task"), (2.0, "later"), (3.0, "task")]
    assert sim._seq == 3


def test_spawn_after_a_processed_event_is_rejected():
    sim = Simulator()
    done = sim.event()
    done.succeed()
    sim.run()

    def worker():
        yield sim.timeout(1.0)

    with pytest.raises(SimulationError):
        sim.spawn_after(done, worker())


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def worker(delay):
        yield sim.timeout(delay)
        return delay

    def main():
        procs = [sim.process(worker(d)) for d in (3.0, 1.0, 2.0)]
        results = yield sim.all_of(procs)
        return sorted(results.values())

    assert sim.run_process(main()) == [1.0, 2.0, 3.0]
    assert sim.now == 3.0


def test_any_of_returns_on_first_completion():
    sim = Simulator()

    def worker(delay):
        yield sim.timeout(delay)
        return delay

    def main():
        procs = [sim.process(worker(d)) for d in (3.0, 1.0)]
        results = yield sim.any_of(procs)
        return list(results.values())

    assert sim.run_process(main()) == [1.0]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def main():
        results = yield sim.all_of([])
        return results

    assert sim.run_process(main()) == {}


def test_call_at_runs_function_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(12.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [12.0]


def test_call_at_passes_its_arguments_at_the_exact_time():
    sim = Simulator()
    seen = []
    sim.call_at(0.1 + 0.2, lambda *args: seen.append((sim.now, args)),
                "frame", 3)
    sim.run()
    assert seen == [(0.1 + 0.2, ("frame", 3))]
    assert sim._seq == 1


def test_call_at_in_the_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)
        sim.call_at(5.0, lambda: None)

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


@pytest.mark.parametrize("start", ["process", "spawn"])
def test_waiting_on_already_processed_event(start):
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def late_waiter():
        # Let the event be processed before anyone waits on it.
        yield sim.timeout(5.0)
        got.append((yield ev))

    getattr(sim, start)(late_waiter())
    sim.run()
    assert got == ["early"]


def test_any_of_with_pending_timeout_waits():
    """Regression: a freshly created Timeout must not count as triggered —
    any_of(event, timeout) must wait for whichever fires first."""
    sim = Simulator()

    def proc():
        ev = sim.event()
        timeout = sim.timeout(100.0)

        def trigger():
            yield sim.timeout(5.0)
            ev.succeed("early")

        sim.process(trigger())
        results = yield sim.any_of([ev, timeout])
        return list(results.values()), sim.now

    values, now = sim.run_process(proc())
    assert values == ["early"]
    assert now == 5.0


def test_timeout_not_triggered_until_fired():
    sim = Simulator()
    timeout = sim.timeout(10.0)
    assert not timeout.triggered
    sim.run()
    assert timeout.triggered
    assert timeout.value is None
