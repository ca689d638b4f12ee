"""Continuous telemetry: sampler scheduling, probes, and serialization
through the tracer's JSONL."""

import json

import pytest

from repro.cluster import Cluster
from repro.sim import (
    Simulator,
    TimeSeriesSampler,
    Tracer,
    load_jsonl,
    rate_probe,
    ratio_probe,
)
from repro.sim import timeseries
from repro.sim.timeseries import window_mean


def run_for(sim, duration_us):
    def clock():
        yield sim.timeout(duration_us)
    return sim.process(clock())


class TestProbes:
    def test_rate_probe_windows(self):
        sim = Simulator()
        counter = {"v": 0.0}
        probe = rate_probe(sim, lambda: counter["v"])

        def proc():
            counter["v"] = 50.0
            yield sim.timeout(100.0)
            assert probe() == pytest.approx(0.5)
            counter["v"] = 50.0  # no growth in the next window
            yield sim.timeout(100.0)
            assert probe() == 0.0

        sim.run_process(proc())

    def test_rate_probe_zero_elapsed(self):
        sim = Simulator()
        probe = rate_probe(sim, lambda: 100.0)
        assert probe() == 0.0  # same instant as creation

    def test_rate_probe_scale(self):
        sim = Simulator()
        counter = {"v": 0.0}
        probe = rate_probe(sim, lambda: counter["v"], scale=1e6)

        def proc():
            counter["v"] = 3.0
            yield sim.timeout(1e6)  # one simulated second
            assert probe() == pytest.approx(3.0)

        sim.run_process(proc())

    def test_ratio_probe_windows(self):
        hits = {"v": 0.0}
        total = {"v": 0.0}
        probe = ratio_probe(lambda: hits["v"], lambda: total["v"])
        hits["v"], total["v"] = 3.0, 4.0
        assert probe() == pytest.approx(0.75)
        # No denominator activity in the next window: 0.0, not a crash.
        assert probe() == 0.0

    def test_window_mean_bounds(self):
        points = [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)]
        assert window_mean(points, 0.0, 20.0) == pytest.approx(2.0)
        assert window_mean(points, 10.0, 10.0) == 2.0
        assert window_mean(points, 30.0, 40.0) is None

    def test_rate_probe_idle_window_advances_anchor(self):
        # The unchanged-source short-circuit must still move the window
        # anchor: growth after an idle window is rated over the *last*
        # window only, not smeared across the idle one.
        sim = Simulator()
        counter = {"v": 0.0}
        probe = rate_probe(sim, lambda: counter["v"])

        def proc():
            yield sim.timeout(100.0)
            assert probe() == 0.0  # idle window (short-circuit path)
            counter["v"] = 50.0
            yield sim.timeout(100.0)
            assert probe() == pytest.approx(0.5)  # 50 over 100us, not 200

        sim.run_process(proc())

    def test_ratio_probe_idle_window_advances_numerator(self):
        # Short-circuited windows (denominator unchanged) must advance
        # the numerator anchor, or later windows over-count it.
        hits = {"v": 0.0}
        total = {"v": 0.0}
        probe = ratio_probe(lambda: hits["v"], lambda: total["v"])
        hits["v"] = 5.0  # numerator moves, denominator does not
        assert probe() == 0.0
        hits["v"], total["v"] = 7.0, 4.0
        assert probe() == pytest.approx(0.5)  # (7-5)/(4-0), not (7-0)/4


class TestSampler:
    def test_off_by_default_schedules_nothing(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, interval_us=10.0)
        sampler.probe("gauge", lambda: 1.0)
        run_for(sim, 100.0)
        sim.run()
        assert sampler.ticks == 0
        assert len(sampler.series["gauge"]) == 0

    def test_unstarted_sampler_leaves_event_count_unchanged(self):
        def events(with_sampler):
            sim = Simulator()
            if with_sampler:
                sampler = TimeSeriesSampler(sim)
                sampler.probe("gauge", lambda: 1.0)
            run_for(sim, 100.0)
            sim.run()
            return sim._seq

        assert events(True) == events(False)

    def test_sampling_ticks_on_interval(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, interval_us=10.0)
        sampler.probe("now", lambda: sim.now)
        proc = run_for(sim, 100.0)
        sampler.start(stop_on=proc)
        sim.run()  # daemon exits once the workload triggers: heap drains
        assert sampler.ticks == 9
        assert [ts for ts, _v in sampler.series["now"]] == \
            [10.0 * k for k in range(1, 10)]

    def test_double_start_rejected(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim)
        stop = sim.event()
        sampler.start(stop_on=stop)
        with pytest.raises(RuntimeError):
            sampler.start(stop_on=stop)

    def test_duplicate_and_empty_probe_names_rejected(self):
        sampler = TimeSeriesSampler(Simulator())
        sampler.probe("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.probe("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.probe("", lambda: 0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(Simulator(), interval_us=0.0)

    def test_ring_capacity_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(timeseries, "CAPACITY", 4)
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, interval_us=1.0)
        sampler.probe("now", lambda: sim.now)
        proc = run_for(sim, 10.5)
        sampler.start(stop_on=proc)
        sim.run()
        series = sampler.series["now"]
        assert sampler.ticks == 10
        assert len(series) == 4
        assert series.dropped == 6
        assert sampler.dropped == 6
        assert [ts for ts, _v in series] == [7.0, 8.0, 9.0, 10.0]

    def test_probe_registered_after_sampling_joins_the_plan(self):
        # sample_once runs off a compiled plan; registering a new probe
        # must invalidate it so the next tick includes the new series.
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, interval_us=1.0)
        sampler.probe("a", lambda: 1.0)
        sampler.sample_once()
        sampler.probe("b", lambda: 2.0)
        sampler.sample_once()
        assert len(sampler.series["a"]) == 2
        assert len(sampler.series["b"]) == 1
        assert sampler.series["b"].last == 2.0

    def test_as_dict_readout(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, interval_us=10.0)
        sampler.probe("gauge", lambda: 42.0)
        proc = run_for(sim, 35.0)
        sampler.start(stop_on=proc)
        sim.run()
        out = sampler.as_dict()
        assert out["ticks"] == 3
        assert out["series"] == 1
        assert out["last.gauge"] == 42.0


class TestSerialization:
    def _sampled(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, interval_us=10.0)
        sampler.probe("a.x", lambda: sim.now)
        sampler.probe("a.y", lambda: 2.0 * sim.now)
        proc = run_for(sim, 100.0)
        sampler.start(stop_on=proc)
        sim.run()
        return sampler

    def _dump(self, path):
        sampler = self._sampled()
        tracer = Tracer(sampler.sim)
        assert tracer.dump_jsonl(str(path), series=sampler.series) == 2
        return sampler

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        sampler = self._dump(path)
        dump = load_jsonl(str(path))
        assert list(dump.series) == ["a.x", "a.y"]
        assert len(dump.series["a.x"]) == sampler.ticks
        assert dump.series["a.x"] == list(sampler.series["a.x"].points)
        assert window_mean(dump.series["a.y"], 0.0, 100.0) == \
            sampler.series["a.y"].mean()

    def test_series_line_carries_the_rings_dropped_count(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(timeseries, "CAPACITY", 4)
        sampler = self._sampled()
        path = tmp_path / "ts.jsonl"
        Tracer(sampler.sim).dump_jsonl(str(path), series=sampler.series)
        record = json.loads(path.read_text().splitlines()[1])
        assert record == {
            "kind": "trace-series", "name": "a.x",
            "dropped": sampler.ticks - 4,
            "points": [[ts, value] for ts, value in sampler.series["a.x"]]}
        assert load_jsonl(str(path)).series["a.x"] == \
            list(sampler.series["a.x"].points)

    def test_to_jsonl_is_deterministic(self, tmp_path):
        self._dump(tmp_path / "a.jsonl")
        self._dump(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()


class TestClusterIntegration:
    def test_attach_sampler_registers_gauges(self):
        cluster = Cluster(system="odafs")
        sampler = cluster.attach_sampler(interval_us=25.0)
        for expected in ("server.cpu.util", "server.cpu.util.copy",
                         "server.cache.hit_rate", "server.rpc.inflight",
                         "client0.rpc.outstanding", "client0.ordma.reads_s",
                         "client0.dir.size", "net.server.tx_util",
                         "net.switch.queue_bytes"):
            assert expected in sampler.series
        # Registered on the metrics registry under "timeseries".
        snapshot = cluster.metrics.snapshot()
        assert snapshot["timeseries.ticks"] == 0
        assert snapshot["timeseries.series"] == len(sampler.series)

    def test_attach_twice_rejected(self):
        cluster = Cluster(system="dafs")
        cluster.attach_sampler()
        with pytest.raises(RuntimeError):
            cluster.attach_sampler()

    def test_sampler_records_during_workload(self):
        cluster = Cluster(system="odafs", block_size=4096,
                          server_cache_blocks=16,
                          client_kwargs={"cache_blocks": 8,
                                         "rpc_read_mode": "direct"})
        cluster.create_file("f", 8 * 4096)
        client = cluster.clients[0]

        def workload():
            yield from client.open("f")
            for i in range(8):
                yield from client.read("f", i * 4096, 4096)

        proc = cluster.sim.process(workload())
        sampler = cluster.attach_sampler(interval_us=20.0)
        sampler.start(stop_on=proc)
        cluster.sim.run()
        assert proc.ok
        assert sampler.ticks > 0
        # The ODAFS claim, visible in telemetry: zero server copy time.
        copy = sampler.series["server.cpu.util.copy"]
        assert len(copy) and all(v == 0.0 for _ts, v in copy)
