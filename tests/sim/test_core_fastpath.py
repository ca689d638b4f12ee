"""Kernel fast paths: trampoline pooling, the AllOf pending counter, and
the slim scheduling path.

These guard the hot-path rewrite's two promises: the optimizations are
invisible to model code (same values, same event ordering), and the
specific O(n) shapes they remove stay removed.
"""

from repro.sim import AllOf, Event, Simulator
from repro.sim.core import PENDING, _Trampoline


def _completion_order(n_procs, hops):
    """Spawn timer-hopping processes; return the order they finish in."""
    sim = Simulator()
    order = []

    def hopper(i):
        for _ in range(hops):
            yield sim.timeout(1.0)
        order.append(i)

    for i in range(n_procs):
        sim.process(hopper(i))
    sim.run()
    return order, sim


class TestTrampolinePool:
    def test_bootstraps_are_recycled(self):
        # Staggered spawns reuse each other's bootstrap trampolines: 50
        # sequential processes need only a couple of pooled objects, not
        # one allocation per spawn.
        sim = Simulator()
        done = []

        def child(i):
            yield sim.timeout(1.0)
            done.append(i)

        def spawner():
            for i in range(50):
                yield sim.process(child(i))

        sim.process(spawner())
        sim.run()
        assert done == list(range(50))
        assert 1 <= len(sim._trampolines) < 10

    def test_recycled_trampolines_are_reset(self):
        _, sim = _completion_order(8, 2)
        for tramp in sim._trampolines:
            assert type(tramp) is _Trampoline
            assert tramp.callbacks == []
            assert tramp._value is PENDING
            assert tramp._ok is None
            assert not tramp._scheduled

    def test_pooling_does_not_change_ordering(self):
        # Identical seeds of work give identical completion orders, and
        # the order interleaves processes (round-robin by spawn), exactly
        # as the unpooled kernel ordered them.
        first, _ = _completion_order(10, 5)
        second, _ = _completion_order(10, 5)
        assert first == second == list(range(10))

    def test_relay_values_survive_recycling(self):
        # Waiting on an already-processed event goes through a relay
        # trampoline; the relayed value must be the original one even
        # after that trampoline object has been recycled many times.
        sim = Simulator()
        done = sim.event()
        done.succeed("payload")
        seen = []

        def late_waiter():
            yield sim.timeout(5.0)
            value = yield done  # done processed long ago -> relay
            seen.append(value)

        for _ in range(20):
            sim.process(late_waiter())
        sim.run()
        assert seen == ["payload"] * 20


class TestAllOfPendingCounter:
    def test_wide_fanin(self):
        sim = Simulator()
        events = [sim.event() for _ in range(100)]
        for i, event in enumerate(events):
            sim.call_at(float(i % 7), event.succeed, i)
        barrier = sim.all_of(events)
        sim.run()
        assert barrier.triggered and barrier.ok
        assert sorted(barrier.value.values()) == list(range(100))

    def test_mixed_pretriggered_and_pending(self):
        sim = Simulator()
        early = sim.event().succeed("early")
        sim.run()  # process `early` so it joins as already-processed
        late = sim.event()
        sim.call_at(3.0, late.succeed, "late")
        barrier = sim.all_of([early, late])
        sim.run()
        assert barrier.triggered
        assert set(barrier.value.values()) == {"early", "late"}

    def test_duplicate_member_counts_twice(self):
        # The counter counts *memberships*, not distinct events: a child
        # listed twice contributes two callbacks and two decrements.
        sim = Simulator()
        shared = sim.timeout(1.0)
        barrier = sim.all_of([shared, shared])
        sim.run()
        assert barrier.triggered and barrier.ok

    def test_failure_preempts_counter(self):
        sim = Simulator()
        boom = RuntimeError("boom")
        ok = sim.timeout(1.0)
        bad = sim.event()
        sim.call_at(0.5, lambda: bad.fail(boom))
        barrier = sim.all_of([ok, bad])
        caught = []

        def waiter():
            try:
                yield barrier
            except RuntimeError as exc:
                caught.append(exc)

        sim.process(waiter())
        sim.run()
        assert caught == [boom]

    def test_empty_allof_fires_immediately(self):
        sim = Simulator()
        barrier = sim.all_of([])
        assert barrier.triggered and barrier.value == {}


class TestScheduleAt:
    def test_absolute_time(self):
        sim = Simulator()
        fired = []
        ev = Event(sim)
        ev.add_callback(lambda e: fired.append(sim.now))
        ev._value = None
        ev._ok = True
        sim.schedule_at(ev, 12.5)
        sim.run()
        assert fired == [12.5]

    def test_fifo_among_simultaneous(self):
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            ev = Event(sim)
            ev.add_callback(lambda e, t=tag: order.append(t))
            ev._value = None
            ev._ok = True
            sim.schedule_at(ev, 4.0)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_call_at_uses_exact_timestamp(self):
        sim = Simulator()
        stamps = []
        sim.call_at(0.1 + 0.2, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == [0.1 + 0.2]
