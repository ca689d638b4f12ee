"""Perfetto/Chrome Trace Event Format export: schema validity,
byte-for-byte determinism, and the Fig. 7 counter-track story."""

import json

import pytest

from repro.bench import telemetry, traceexport, tracecli
from repro.params import default_params


def run_sampled(system="odafs", blocks=8, seed=7):
    return tracecli.run_workload(
        system=system, blocks=blocks, passes=2,
        params=default_params().copy(seed=seed), sample_interval_us=50.0)


@pytest.fixture(scope="module")
def live():
    return run_sampled()


@pytest.fixture(scope="module")
def doc(live):
    tracer = live["tracer"]
    return traceexport.build_trace(events=list(tracer),
                                   spans=tracer.finished_spans(),
                                   series=live["sampler"].series)


class TestBuildTrace:
    def test_valid_against_schema(self, doc):
        assert traceexport.validate(doc) == []

    def test_document_envelope(self, doc):
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        phases = {row["ph"] for row in doc["traceEvents"]}
        assert phases == {"M", "X", "i", "C"}

    def test_every_host_has_a_process_row(self, doc):
        names = {row["args"]["name"] for row in doc["traceEvents"]
                 if row["ph"] == "M" and row["name"] == "process_name"}
        assert {"server", "client0", "net"} <= names

    def test_counter_tracks_cover_sampler_series(self, doc, live):
        tracks = traceexport.counter_tracks(doc)
        assert set(tracks) == set(live["sampler"].series)
        assert all(count > 0 for count in tracks.values())

    def test_span_rows_carry_request_ids(self, doc):
        requests = [row for row in doc["traceEvents"]
                    if row["ph"] == "X" and row["name"] == "read"]
        assert requests
        assert all("rid" in row["args"] for row in requests)


class TestValidate:
    def test_rejects_non_document(self):
        assert traceexport.validate([]) != []
        assert traceexport.validate({"traceEvents": []}) != []

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "Q", "pid": 1, "name": "x"}]}
        assert any("unknown phase" in p for p in traceexport.validate(doc))

    def test_rejects_negative_duration(self):
        doc = {"traceEvents": [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "p"}},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 0.0, "dur": -1.0,
             "name": "x"},
        ]}
        assert any("dur" in p for p in traceexport.validate(doc))

    def test_rejects_counter_time_regression(self):
        doc = {"traceEvents": [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "p"}},
            {"ph": "C", "pid": 1, "tid": 0, "ts": 10.0, "name": "c",
             "args": {"value": 1.0}},
            {"ph": "C", "pid": 1, "tid": 0, "ts": 5.0, "name": "c",
             "args": {"value": 2.0}},
        ]}
        assert any("regresses" in p for p in traceexport.validate(doc))

    def test_rejects_unnamed_pid(self):
        doc = {"traceEvents": [
            {"ph": "i", "pid": 9, "tid": 0, "ts": 0.0, "name": "x",
             "s": "t", "args": {}},
        ]}
        assert any("no process_name" in p
                   for p in traceexport.validate(doc))


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        def export(dump_path):
            live = run_sampled(blocks=4)
            tracer = live["tracer"]
            series = live["sampler"].series
            doc = traceexport.build_trace(
                events=list(tracer), spans=tracer.finished_spans(),
                series=series)
            tracer.dump_jsonl(str(dump_path), series=series)
            return traceexport.to_json(doc), dump_path.read_bytes()

        assert export(tmp_path / "a.jsonl") == export(tmp_path / "b.jsonl")

    def test_campaign_jobs_parallel_equivalence(self):
        kwargs = dict(blocks=4, seed=7)
        serial = telemetry.run_campaign(["nfs", "odafs"], jobs=1, **kwargs)
        parallel = telemetry.run_campaign(["nfs", "odafs"], jobs=2,
                                          **kwargs)
        assert serial == parallel


class TestDumpAndCli:
    def test_dump_validates_via_cli(self, tmp_path, live, capsys):
        tracer = live["tracer"]
        path = tmp_path / "trace.json"
        count = traceexport.dump_perfetto(
            str(path), events=list(tracer),
            spans=tracer.finished_spans(), series=live["sampler"].series)
        assert count > 0
        assert traceexport.main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_flags_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"traceEvents": [{"ph": "Q", "pid": 1, "name": "x"}]}))
        assert traceexport.main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_cli_without_args(self, capsys):
        assert traceexport.main([]) == 2

    def test_export_from_trace_dump_without_series(self, tmp_path, live):
        # --input mode on a dump written without the sampled series.
        from repro.sim import load_jsonl
        dump_path = tmp_path / "trace.jsonl"
        live["tracer"].dump_jsonl(str(dump_path))
        dump = load_jsonl(str(dump_path))
        assert dump.series == {}
        doc = traceexport.build_trace(events=dump.events,
                                      spans=dump.finished_spans(),
                                      series=dump.series)
        assert traceexport.validate(doc) == []
        assert traceexport.counter_tracks(doc) == {}


class TestFig7Story:
    def test_odafs_drops_server_cpu_counter_track(self):
        """The paper's core claim, read off the exported counter tracks:
        ODAFS moves the server CPU out of the data path."""
        means = {}
        for system in ("nfs", "odafs"):
            # 16 blocks: long enough that the steady ORDMA phase (not
            # the RPC warm-up pass) dominates the ODAFS run.
            live = run_sampled(system=system, blocks=16)
            doc = traceexport.build_trace(series=live["sampler"].series)
            values = [row["args"]["value"]
                      for row in doc["traceEvents"]
                      if row["ph"] == "C"
                      and row["name"] == "server.cpu.util"]
            assert values
            means[system] = sum(values) / len(values)
        assert means["odafs"] < means["nfs"] / 2
