"""Unit tests for resources, stores and bandwidth pipes."""

import pytest

from repro.sim import (BandwidthPipe, Resource, SimulationError, Simulator,
                       Store)


class TestResource:
    def test_capacity_one_serializes(self):
        sim = Simulator()
        res = Resource(sim)
        finish_times = []

        def user():
            req = res.request()
            yield req
            yield sim.timeout(10.0)
            res.release(req)
            finish_times.append(sim.now)

        for _ in range(3):
            sim.process(user())
        sim.run()
        assert finish_times == [10.0, 20.0, 30.0]

    def test_priority_order(self):
        sim = Simulator()
        res = Resource(sim)
        served = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(5.0)
            res.release(req)

        def user(tag, prio, delay):
            yield sim.timeout(delay)
            req = res.request(priority=prio)
            yield req
            served.append(tag)
            yield sim.timeout(1.0)
            res.release(req)

        sim.process(holder())
        sim.process(user("low", 2, 1.0))
        sim.process(user("high", 0, 2.0))
        sim.run()
        assert served == ["high", "low"]

    def test_fifo_within_priority(self):
        sim = Simulator()
        res = Resource(sim)
        served = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(5.0)
            res.release(req)

        def user(tag, delay):
            yield sim.timeout(delay)
            req = res.request()
            yield req
            served.append(tag)
            res.release(req)

        sim.process(holder())
        sim.process(user("first", 1.0))
        sim.process(user("second", 2.0))
        sim.run()
        assert served == ["first", "second"]

    def test_release_without_hold_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        req = res.request()
        sim.run()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_hold_stays_pending_until_its_service_ends(self):
        sim = Simulator()
        res = Resource(sim)
        first = res.hold(10.0)  # idle: completion scheduled at once
        second = res.hold(5.0)  # busy: queued until first ends
        both = sim.all_of([first, second])
        at_12 = []
        sim.call_at(12.0, lambda: at_12.append(
            (first.triggered, second.triggered, both.triggered,
             res.count, res.queue_len)))
        sim.run()
        assert at_12 == [(True, False, False, 1, 0)]
        assert second.triggered and both.triggered
        assert sim.now == 15.0
        assert res.count == 0

    def test_queued_hold_from_the_free_list_stays_pending(self):
        """A hold that has to queue takes its completion from the
        kernel's timeout free list. Recycled, it must still read as not
        ``triggered`` while it waits and while it is served, and as
        ``triggered`` only once its service ends."""
        sim = Simulator()
        res = Resource(sim)
        sim.timeout(1.0)
        sim.timeout(1.0)
        sim.run()  # nothing holds either timeout: both are recycled
        assert len(sim._timeouts) == 2
        first = res.hold(10.0)  # idle: completion scheduled at once
        recycled = sim._timeouts[-1]
        second = res.hold(5.0)  # busy: queued until first ends
        assert second is recycled and not sim._timeouts
        seen = []
        for at in (5.0, 12.0):
            sim.call_at(sim.now + at, lambda: seen.append(
                (first.triggered, second.triggered)))
        assert not second.triggered
        sim.run()
        assert seen == [(False, False), (True, False)]
        assert second.triggered and second.ok and second.value is None
        assert sim.now == 1.0 + 15.0

    def test_queued_zero_duration_hold_completes_through_the_run_queue(self):
        """A zero-duration hold granted at ``now`` fires from the run
        queue, after every event already due at ``now``: here a success
        scheduled, before the grant, by an earlier heap entry for the
        same instant. Dispatch stays in ``(time, seq)`` order."""
        sim = Simulator()
        res = Resource(sim)
        order = []
        marker = sim.event()
        marker.add_callback(lambda _e: order.append(("marker", sim.now)))
        sim.timeout(5.0).add_callback(lambda _e: marker.succeed())
        res.hold(5.0)  # heap entry at t=5, dispatched after the timeout
        queued = res.hold(0.0)
        queued.add_callback(lambda _e: order.append(("queued", sim.now)))
        sim.run()
        # At t=5 the marker draws seq 3, then the grant draws seq 4.
        assert order == [("marker", 5.0), ("queued", 5.0)]
        assert sim._seq == 4

    def test_hold_rejects_negative_duration(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.hold(-1.0)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")

        def getter():
            value = yield store.get()
            return value

        assert sim.run_process(getter()) == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def getter():
            value = yield store.get()
            return (value, sim.now)

        def putter():
            yield sim.timeout(7.0)
            store.put("late")

        proc = sim.process(getter())
        sim.process(putter())
        sim.run()
        assert proc.value == ("late", 7.0)

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            value = yield store.get()
            got.append(value)

        sim.process(getter())
        sim.process(getter())
        store.put(1)
        store.put(2)
        sim.run()
        assert got == [1, 2]


class TestBandwidthPipe:
    def test_transfer_time(self):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bandwidth_bpus=100.0)

        def proc():
            yield pipe.transfer(1000)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(10.0)

    def test_serialization(self):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bandwidth_bpus=100.0)
        times = []

        def proc():
            yield pipe.transfer(500)
            times.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert times == [pytest.approx(5.0), pytest.approx(10.0)]

    def test_per_transfer_overhead(self):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bandwidth_bpus=100.0, per_transfer_us=2.0)

        def proc():
            yield pipe.transfer(100)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(3.0)

    def test_cut_through_idle_pipe_is_immediate(self):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bandwidth_bpus=100.0)

        def proc():
            yield sim.timeout(50.0)
            return pipe.reserve_cut_through(1000)

        assert sim.run_process(proc()) == 0.0
        assert pipe.stats_busy_us == pytest.approx(10.0)

    def test_cut_through_busy_pipe_queues(self):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bandwidth_bpus=100.0)
        # First arrives immediately (bits streamed in); second queues for a
        # full serialization behind it.
        delays = [pipe.reserve_cut_through(500), pipe.reserve_cut_through(500)]
        assert delays[0] == 0.0
        assert delays[1] == pytest.approx(5.0)
        assert pipe.stats_transfers == 2

    def test_utilization_accounting(self):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bandwidth_bpus=100.0)

        def proc():
            yield pipe.transfer(1000)
            yield sim.timeout(10.0)

        sim.run_process(proc())
        assert pipe.utilization() == pytest.approx(0.5)
        assert pipe.stats_bytes == 1000

    def test_invalid_sizes_rejected(self):
        sim = Simulator()
        pipe = BandwidthPipe(sim, bandwidth_bpus=100.0)
        with pytest.raises(SimulationError):
            pipe.transfer(-1)
        with pytest.raises(SimulationError):
            BandwidthPipe(sim, bandwidth_bpus=0.0)
