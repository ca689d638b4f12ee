"""Tests for the structured tracing subsystem."""

import json

import pytest

from repro.cluster import Cluster
from repro.params import KB
from repro.sim import (LatencyStats, Simulator, Span, Tracer, load_jsonl,
                       trace_emit)
from repro.sim import trace
from repro.sim.trace import TraceEvent


class TestTracerCore:
    def test_emit_and_filter(self):
        sim = Simulator()
        tracer = Tracer.attach(sim)

        def proc():
            tracer.emit("compA", "kindX", value=1)
            yield sim.timeout(10.0)
            tracer.emit("compB", "kindX", value=2)
            tracer.emit("compA", "kindY", value=3)

        sim.run_process(proc())
        assert len(tracer) == 3
        assert [ev.detail["value"] for ev in tracer.filter("kindX")] \
            == [1, 2]
        assert [ev.component for ev in tracer.filter("kindY")] == ["compA"]

    def test_timestamps_follow_sim_clock(self):
        sim = Simulator()
        tracer = Tracer.attach(sim)

        def proc():
            yield sim.timeout(42.0)
            tracer.emit("c", "k")

        sim.run_process(proc())
        assert tracer.events[0].ts == 42.0

    def test_ring_buffer_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(trace, "CAPACITY", 10)
        sim = Simulator()
        tracer = Tracer(sim)
        for i in range(25):
            tracer.emit("c", "k", i=i)
        assert len(tracer) == 10
        assert tracer.dropped == 15
        assert tracer.emitted == 25
        assert tracer.events[0].detail["i"] == 15  # oldest kept

    def test_counts(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("c", "a")
        tracer.emit("c", "a")
        tracer.emit("c", "b")
        assert tracer.counts() == {"a": 2, "b": 1}
        assert len(tracer) == 3

    def test_dump_jsonl(self, tmp_path):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("c", "k", x=1)
        path = tmp_path / "trace.jsonl"
        assert tracer.dump_jsonl(str(path)) == 1
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "trace-header"
        assert header["emitted"] == 1 and header["dropped"] == 0
        record = json.loads(lines[1])
        assert record == {"ts": 0.0, "component": "c", "kind": "k", "x": 1}

    def test_repr_is_readable(self):
        ev = TraceEvent(12.5, "nic", "rdma-get", {"bytes": 4096})
        assert "nic" in repr(ev) and "rdma-get" in repr(ev)


class TestSpans:
    def test_marks_monotonic_and_breakdown_sums_to_duration(self):
        sim = Simulator()
        tracer = Tracer.attach(sim)

        def proc():
            span = tracer.start_span("client0", "read", nbytes=4096)
            yield sim.timeout(3.0)
            span.mark("client0", "rpc.marshal")
            yield sim.timeout(10.0)
            span.mark("server", "net.request")
            yield sim.timeout(7.0)
            span.mark("server", "server.reply")
            yield sim.timeout(2.5)
            span.finish("client0")
            return span

        span = sim.run_process(proc())
        timestamps = [ts for ts, _c, _s, _d in span.marks]
        assert timestamps == sorted(timestamps)
        assert span.finished and span.duration == pytest.approx(22.5)
        breakdown = span.breakdown()
        assert sum(breakdown.values()) == pytest.approx(span.duration)
        assert breakdown["rpc.marshal"] == pytest.approx(3.0)
        assert breakdown["deliver"] == pytest.approx(2.5)

    def test_stage_sums_match_measured_read_latency(self):
        cluster = Cluster(system="odafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 2})
        cluster.create_file("f", 16 * KB)
        tracer = Tracer.attach(cluster.sim)
        client = cluster.clients[0]
        meter = LatencyStats()

        def proc():
            for _ in range(2):
                for i in range(4):
                    start = cluster.sim.now
                    yield from client.read("f", i * 4 * KB, 4 * KB)
                    meter.record(cluster.sim.now - start)

        cluster.sim.run_process(proc())
        spans = tracer.finished_spans(op="read")
        assert len(spans) == meter.count
        span_mean = sum(sum(s.breakdown().values())
                        for s in spans) / len(spans)
        assert span_mean == pytest.approx(meter.mean, rel=0.01)
        # ODAFS pass 2 goes optimistic; pass 1 fills over RDMA.
        paths = {s.path for s in spans}
        assert "ordma" in paths and "rdma" in paths

    def test_unfinished_span_has_no_duration(self):
        sim = Simulator()
        tracer = Tracer.attach(sim)
        span = tracer.start_span("c", "read")
        assert not span.finished
        with pytest.raises(ValueError):
            span.duration

    def test_finished_spans_filters(self):
        sim = Simulator()
        tracer = Tracer.attach(sim)
        a = tracer.start_span("c", "read")
        a.path = "ordma"
        a.finish("c")
        b = tracer.start_span("c", "write")
        b.finish("c")
        tracer.start_span("c", "read")  # unfinished
        assert len(tracer.finished_spans()) == 2
        assert tracer.finished_spans(op="read") == [a]
        assert tracer.finished_spans(op="write") == [b]

    def test_span_dict_round_trip(self):
        sim = Simulator()
        tracer = Tracer.attach(sim)

        def proc():
            span = tracer.start_span("c", "read", nbytes=4096)
            yield sim.timeout(5.0)
            span.mark("s", "net.request", proc="read")
            yield sim.timeout(5.0)
            span.path = "rdma"
            span.finish("c")
            return span

        span = sim.run_process(proc())
        clone = Span.from_dict(json.loads(json.dumps(span.as_dict())))
        assert clone.rid == span.rid and clone.path == "rdma"
        assert clone.duration == pytest.approx(span.duration)
        assert clone.breakdown() == span.breakdown()

    def test_dump_load_round_trip_with_spans(self, tmp_path):
        sim = Simulator()
        tracer = Tracer.attach(sim)

        def proc():
            tracer.emit("nic", "rdma-get", bytes=4096)
            span = tracer.start_span("c", "read")
            yield sim.timeout(12.0)
            span.finish("c")

        sim.run_process(proc())
        path = tmp_path / "t.jsonl"
        assert tracer.dump_jsonl(str(path)) == 2  # 1 event + 1 span
        dump = load_jsonl(str(path))
        assert dump.emitted == 1 and dump.dropped == 0
        assert dump.counts() == {"rdma-get": 1}
        assert len(dump.finished_spans()) == 1
        assert dump.finished_spans()[0].duration == pytest.approx(12.0)

    def test_load_refuses_a_file_without_the_header(self, tmp_path):
        path = tmp_path / "no-header.jsonl"
        path.write_text('{"ts": 1.0, "component": "c", "kind": "k"}\n')
        with pytest.raises(ValueError, match="no trace-header line"):
            load_jsonl(str(path))


class TestInstrumentation:
    def test_odafs_read_produces_nic_and_rpc_events(self):
        cluster = Cluster(system="odafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 2})
        cluster.create_file("f", 32 * KB)
        tracer = Tracer.attach(cluster.sim)
        client = cluster.clients[0]

        def proc():
            for i in range(8):
                yield from client.read("f", i * 4 * KB, 4 * KB)
            for i in range(8):
                yield from client.read("f", i * 4 * KB, 4 * KB)

        cluster.sim.run_process(proc())
        counts = tracer.counts()
        assert counts.get("rpc-call", 0) >= 8
        assert counts.get("rpc-serve", 0) >= 8
        assert counts.get("rdma-get", 0) >= 6   # pass-2 ORDMA reads
        assert counts.get("get-served", 0) >= 6
        # Every get the client issued was served or faulted.
        def at(component, kind):
            return [ev for ev in tracer.filter(kind)
                    if ev.component == component]

        gets = len(at("client0", "rdma-get"))
        served = len(at("server", "get-served"))
        faults = len(at("server", "ordma-fault"))
        assert gets == served + faults

    def test_fault_events_carry_reason(self):
        cluster = Cluster(system="odafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 2})
        cluster.create_file("f", 16 * KB)
        tracer = Tracer.attach(cluster.sim)
        client = cluster.clients[0]

        def proc():
            for i in range(4):
                yield from client.read("f", i * 4 * KB, 4 * KB)
            cluster.cache.invalidate(("f", 0))
            yield from client.read("f", 0, 4 * KB)

        cluster.sim.run_process(proc())
        faults = tracer.filter(kind="ordma-fault")
        assert len(faults) == 1
        assert faults[0].detail["reason"] == "invalid translation"
        assert faults[0].detail["initiator"] == "client0"

    def test_tracing_disabled_by_default_and_free(self):
        cluster = Cluster(system="dafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 2})
        cluster.create_file("f", 4 * KB)
        assert cluster.sim.tracer is None
        client = cluster.clients[0]

        def proc():
            yield from client.read("f", 0, 4 * KB)

        cluster.sim.run_process(proc())  # must not raise

    def test_detach(self):
        # A tracer is detached by clearing ``sim.tracer``: emit sites then
        # record nothing.
        sim = Simulator()
        tracer = Tracer.attach(sim)
        assert sim.tracer is tracer
        trace_emit(sim, "c", "k")
        sim.tracer = None
        trace_emit(sim, "c", "k")
        assert tracer.emitted == 1

    def test_cache_link_disk_and_dispatch_emit_sites(self):
        cluster = Cluster(system="odafs", block_size=4 * KB,
                          client_kwargs={"cache_blocks": 2},
                          server_cache_blocks=2)
        # Tiny server cache: reads past the warm window hit the disk.
        cluster.create_file("f", 16 * KB, warm=False)
        tracer = Tracer.attach(cluster.sim)
        client = cluster.clients[0]

        def proc():
            for i in range(4):
                yield from client.read("f", i * 4 * KB, 4 * KB)
            # Re-read the most recent block: a client cache hit.
            yield from client.read("f", 3 * 4 * KB, 4 * KB)

        cluster.sim.run_process(proc())
        counts = tracer.counts()
        for kind in ("cache-hit", "cache-miss", "link-tx-start",
                     "link-tx-end", "disk-io-start", "disk-io-complete",
                     "srv-dispatch", "srv-reply"):
            assert counts.get(kind, 0) > 0, f"no {kind} events"
        assert counts["link-tx-start"] == counts["link-tx-end"]
        assert counts["disk-io-start"] == counts["disk-io-complete"]
        assert counts["srv-dispatch"] == counts["srv-reply"]

    def test_tracing_does_not_perturb_simulation(self):
        """Attached vs detached tracer: identical timing and results."""
        def run(traced):
            cluster = Cluster(system="odafs", block_size=4 * KB,
                              client_kwargs={"cache_blocks": 2})
            cluster.create_file("f", 16 * KB)
            if traced:
                Tracer.attach(cluster.sim)
            client = cluster.clients[0]

            def proc():
                for _ in range(2):
                    for i in range(4):
                        yield from client.read("f", i * 4 * KB, 4 * KB)

            cluster.sim.run_process(proc())
            return (cluster.sim.now, client.stats.as_dict(),
                    cluster.server.stats.as_dict(),
                    cluster.metrics.snapshot()["server.cpu.busy_us"])

        assert run(traced=False) == run(traced=True)
