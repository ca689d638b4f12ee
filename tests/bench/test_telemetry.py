"""The ``repro-bench telemetry`` subcommand: sparklines and campaigns."""

import json

import pytest

from repro.bench import telemetry


class TestSparkline:
    def test_resample_preserves_short_series(self):
        assert telemetry.resample([1.0, 2.0], 10) == [1.0, 2.0]

    def test_resample_buckets_long_series(self):
        values = [float(x) for x in range(100)]
        out = telemetry.resample(values, 10)
        assert len(out) == 10
        assert out[0] == pytest.approx(4.5)   # mean of 0..9
        assert out[-1] == pytest.approx(94.5)  # mean of 90..99

    def test_sparkline_scales_to_range(self):
        line = telemetry.sparkline([0.0, 1.0], width=10)
        assert line[0] == telemetry.SPARK[0]
        assert line[-1] == telemetry.SPARK[-1]

    def test_flat_series_renders_low_glyph(self):
        assert telemetry.sparkline([5.0] * 4) == telemetry.SPARK[0] * 4

    def test_empty_series(self):
        assert telemetry.sparkline([]) == ""


class TestRenderTimelines:
    def _series(self):
        return {"a.util": [(10.0, 0.1), (20.0, 0.9)],
                "b.queue": [(10.0, 3.0)]}

    def test_all_series_listed(self):
        out = telemetry.render_timelines(self._series())
        assert "a.util" in out and "b.queue" in out
        assert "n=   2" in out

    def test_match_filters(self):
        out = telemetry.render_timelines(self._series(), match=["a."])
        assert "a.util" in out and "b.queue" not in out
        assert telemetry.render_timelines(self._series(),
                                          match=["zzz"]) == \
            "  (no matching series)"

    def test_summary_stats(self):
        summary = telemetry.series_summary(self._series())
        assert summary["a.util"] == {
            "n": 2, "min": 0.1, "mean": pytest.approx(0.5), "max": 0.9,
            "last": 0.9}


class TestCampaign:
    @pytest.fixture(scope="class")
    def results(self):
        return telemetry.run_campaign(["nfs", "odafs"], blocks=16,
                                      seed=7, jobs=1)

    def test_results_in_point_order(self, results):
        assert [r["system"] for r in results] == ["nfs", "odafs"]
        assert all(r["ticks"] > 0 for r in results)

    def test_fig7_story_in_means(self, results):
        by_system = {r["system"]: r["means"] for r in results}
        assert by_system["odafs"]["server.cpu.util"] < \
            by_system["nfs"]["server.cpu.util"] / 2
        assert by_system["odafs"]["server.cpu.util.copy"] == 0.0

    def test_render_names_the_story(self, results):
        out = telemetry.render_campaign(results)
        assert "server CPU out of the data path" in out
        assert "% lower" in out


class TestCli:
    def test_json_output(self, capsys):
        assert telemetry.main(["--quick", "--seed", "7", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["system"] == "odafs"
        assert result["ticks"] > 0
        assert result["series"]["server.cpu.util"]["n"] == result["ticks"]

    def test_campaign_json_output(self, capsys):
        assert telemetry.main(["--quick", "--seed", "7", "--systems",
                               "nfs,odafs", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {"nfs", "odafs"}

    def test_unknown_system_rejected(self, capsys):
        with pytest.raises(SystemExit):
            telemetry.main(["--systems", "nfs,bogus"])

    def test_dump_writes_jsonl(self, tmp_path, capsys):
        from repro.sim import load_jsonl
        path = tmp_path / "t.jsonl"
        assert telemetry.main(["--quick", "--seed", "7",
                               "--dump", str(path)]) == 0
        dump = load_jsonl(str(path))
        assert dump.finished_spans(op="read")
        assert dump.series["server.cpu.util"]
