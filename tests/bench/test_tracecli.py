"""Tests for the ``repro-bench trace`` analysis subcommand."""

import json

from repro.bench import tracecli
from repro.bench.cli import main as bench_main


class TestWorkload:
    def test_odafs_run_covers_all_paths(self):
        live = tracecli.run_workload(system="odafs", blocks=16)
        spans = live["tracer"].finished_spans(op="read")
        paths = {s.path for s in spans}
        assert {"rdma", "ordma", "ordma-fallback"} <= paths

    def test_span_sums_match_meter_within_one_percent(self):
        live = tracecli.run_workload(system="odafs", blocks=16)
        meter = live["meter"]
        spans = live["tracer"].finished_spans(op="read")
        assert len(spans) == meter.count
        span_mean = tracecli.span_sum_mean(spans)
        assert abs(span_mean - meter.mean) / meter.mean < 0.01


class TestCriticalPath:
    def _spans(self):
        live = tracecli.run_workload(system="odafs", blocks=16)
        return live["tracer"].finished_spans(op="read"), live["sampler"]

    def test_attribution_reconciles_with_duration(self):
        spans, _sampler = self._spans()
        assert tracecli.critical_path_consistency(spans) <= 1e-6

    def test_splits_cover_every_path(self):
        spans, _sampler = self._spans()
        tables = tracecli.critical_path(spans)
        assert {"rdma", "ordma", "ordma-fallback"} <= set(tables)
        for splits in tables.values():
            for split in splits.values():
                # Every span spends at least one floor of service.
                assert split.service.percentile(0) >= split.floor - 1e-9
                assert split.occurrences >= split.service.count

    def test_floor_is_minimum_observed_interval(self):
        spans, _sampler = self._spans()
        floors = tracecli.service_floors(spans)
        for span in spans:
            for stage, _component, _start, dur in span.stages():
                assert floors[(span.path, stage)] <= dur + 1e-9

    def test_dominant_resource_named_from_sampler(self):
        live = tracecli.run_workload(system="odafs", blocks=16,
                                     sample_interval_us=50.0)
        spans = live["tracer"].finished_spans(op="read")
        dominant = tracecli.dominant_resources(spans,
                                               live["sampler"].series)
        assert dominant
        for name, mean in dominant.values():
            assert name.endswith(tracecli._UTIL_SUFFIXES)
            assert 0.0 <= mean <= 1.0

    def test_dominant_resources_empty_without_telemetry(self):
        spans, _sampler = self._spans()
        assert tracecli.dominant_resources(spans, None) == {}


class TestCLI:
    def test_text_output_sections(self, capsys):
        assert tracecli.main(["--quick"]) == 0
        out = capsys.readouterr().out
        for section in ("Path mix", "Per-stage latency", "waterfalls",
                        "ORDMA fault timeline", "Cache summary",
                        "Consistency check"):
            assert section in out
        assert "[OK <1%]" in out
        for path in ("rdma", "ordma", "ordma-fallback"):
            assert path in out

    def test_rpc_path_for_plain_nfs(self, capsys):
        assert tracecli.main(["--quick", "--system", "nfs"]) == 0
        out = capsys.readouterr().out
        assert "path=rpc" in out

    def test_json_output(self, capsys):
        assert tracecli.main(["--quick", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["path_mix"]
        assert result["meter_mean_us"] > 0
        delta = abs(result["span_sum_mean_us"] - result["meter_mean_us"])
        assert delta / result["meter_mean_us"] < 0.01

    def test_dump_and_input_round_trip(self, tmp_path, capsys):
        dump = tmp_path / "t.jsonl"
        assert tracecli.main(["--quick", "--dump", str(dump)]) == 0
        capsys.readouterr()
        assert tracecli.main(["--input", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "Path mix" in out and "ordma" in out

    def test_critical_path_text_output(self, capsys):
        assert tracecli.main(["--quick", "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "Critical path: service vs queueing wait" in out
        assert "dominant resource:" in out
        assert "reconciliation" in out and "[OK]" in out

    def test_critical_path_json_output(self, capsys):
        assert tracecli.main(["--quick", "--critical-path",
                              "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["critical_path_max_error_us"] <= 1e-6
        for path, table in result["critical_path"].items():
            for stage, split in table["stages"].items():
                assert split["count"] > 0
                assert split["service"]["mean"] >= 0.0
                assert split["wait"]["mean"] >= 0.0

    def test_perfetto_and_timeseries_outputs(self, tmp_path, capsys):
        from repro.bench import traceexport
        from repro.sim import load_jsonl
        perfetto = tmp_path / "trace.json"
        dump_path = tmp_path / "t.jsonl"
        assert tracecli.main(["--quick", "--perfetto", str(perfetto),
                              "--dump", str(dump_path)]) == 0
        capsys.readouterr()
        assert traceexport.main([str(perfetto)]) == 0
        assert "OK" in capsys.readouterr().out
        dump = load_jsonl(str(dump_path))
        assert dump.series["server.cpu.util"]
        with open(perfetto) as fh:
            tracks = traceexport.counter_tracks(json.load(fh))
        assert set(tracks) == set(dump.series)

    def test_replayed_dump_reproduces_the_live_critical_path(self, tmp_path,
                                                             capsys):
        """A saved run names the same dominant resources and exports the
        same Perfetto file, counter tracks included, as the live run."""
        dump = tmp_path / "t.jsonl"
        live = tmp_path / "live.json"
        replay = tmp_path / "replay.json"
        assert tracecli.main(["--quick", "--seed", "7", "--dump",
                              str(dump)]) == 0
        capsys.readouterr()
        assert tracecli.main(["--quick", "--seed", "7", "--critical-path",
                              "--perfetto", str(live), "--json"]) == 0
        live_out = json.loads(capsys.readouterr().out)
        assert tracecli.main(["--input", str(dump), "--critical-path",
                              "--perfetto", str(replay), "--json"]) == 0
        replay_out = json.loads(capsys.readouterr().out)
        assert replay.read_bytes() == live.read_bytes()
        assert replay_out["critical_path"] == live_out["critical_path"]
        assert all(table["dominant_resource"]
                   for table in replay_out["critical_path"].values())

    def test_perfetto_from_input_dump(self, tmp_path, capsys):
        dump = tmp_path / "t.jsonl"
        perfetto = tmp_path / "trace.json"
        assert tracecli.main(["--quick", "--dump", str(dump)]) == 0
        assert tracecli.main(["--input", str(dump),
                              "--perfetto", str(perfetto)]) == 0
        capsys.readouterr()
        from repro.bench import traceexport
        assert traceexport.main([str(perfetto)]) == 0

    def test_dispatch_from_bench_cli(self, capsys):
        assert bench_main(["trace", "--quick", "--waterfalls", "1"]) == 0
        assert "Consistency check" in capsys.readouterr().out

    def test_telemetry_dispatch_from_bench_cli(self, capsys):
        assert bench_main(["telemetry", "--quick", "--seed", "7",
                           "--series", "server.cpu"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry" in out and "server.cpu.util" in out
