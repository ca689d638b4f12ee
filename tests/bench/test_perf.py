"""The engine perf suite: document shape, deterministic digest, and the
normalized regression gate."""

import copy

import pytest

from repro.bench import perf


@pytest.fixture(scope="module")
def suite_doc():
    return perf.run_suite(quick=True, repeat=1, sweep=False)


class TestRunSuite:
    def test_document_shape(self, suite_doc):
        assert suite_doc["schema"] == perf.SCHEMA_VERSION
        assert suite_doc["quick"] is True
        assert suite_doc["calibration_ops_per_s"] > 0
        assert suite_doc["host"]["cpu_count"] >= 1
        assert set(perf.BENCHES) <= set(suite_doc["benches"])

    def test_rates_and_normalization(self, suite_doc):
        calib = suite_doc["calibration_ops_per_s"]
        for name, (fn, rate_key) in perf.BENCHES.items():
            bench = suite_doc["benches"][name]
            assert bench["wall_s"] > 0
            assert bench[rate_key] > 0
            assert bench["normalized"] == pytest.approx(
                bench[rate_key] / calib)

    def test_reference_trajectory_embedded(self, suite_doc):
        # BENCH_perf.json must always carry the pre-optimization numbers
        # so the before/after story survives regeneration.
        ref = suite_doc["reference_seed_kernel"]
        assert set(perf.BENCHES) <= set(ref)
        assert all(v > 0 for v in ref.values())

    def test_telemetry_bench_included(self, suite_doc):
        bench = suite_doc["benches"]["telemetry_reads"]
        assert bench["ops"] == suite_doc["benches"]["rpc_reads"]["ops"]
        assert bench["samples"] > 0
        assert bench["normalized"] > 0

    def test_scale_bench_included(self, suite_doc):
        bench = suite_doc["benches"]["scale_smallio"]
        assert bench["clients"] == perf.SCALE_CLIENTS[True]
        assert bench["ops"] == 2 * 16 * bench["clients"]
        assert bench["rate_key"] == "ops_per_s"
        assert bench["normalized"] > 0

    def test_disabled_telemetry_leaves_rpc_reads_digest_unchanged(
            self, suite_doc):
        # The sampler-overhead guard: with telemetry off, the rpc_reads
        # bench must simulate exactly what the committed baseline did.
        # The baseline's events were re-pinned (26933 -> 21165) when a
        # frame crossed the switch in one kernel event and a NIC send
        # started from its descriptor fetch; ops and sim_us did not move.
        import json
        import os
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            os.pardir, "BENCH_perf.json")
        with open(path) as fh:
            baseline = json.load(fh)
        assert baseline["schema"] == perf.SCHEMA_VERSION
        result = perf.bench_rpc_reads(quick=False)
        base = baseline["benches"]["rpc_reads"]
        for key in ("events", "sim_us", "ops"):
            assert result[key] == base[key]


class TestDigest:
    def test_digest_is_deterministic(self, suite_doc):
        again = perf.run_suite(quick=True, repeat=1, sweep=False)
        assert perf.digest(suite_doc) == perf.digest(again)

    def test_digest_excludes_timing(self, suite_doc):
        flat = str(perf.digest(suite_doc))
        assert "wall_s" not in flat
        assert "normalized" not in flat


class TestCheckRegression:
    def _docs(self, suite_doc):
        return copy.deepcopy(suite_doc), copy.deepcopy(suite_doc)

    def test_identical_docs_pass(self, suite_doc):
        doc, base = self._docs(suite_doc)
        assert perf.check_regression(doc, base) == []

    def test_small_drop_within_tolerance(self, suite_doc):
        doc, base = self._docs(suite_doc)
        doc["benches"]["kernel_events"]["normalized"] *= 0.9
        assert perf.check_regression(doc, base, tolerance=0.25) == []

    def test_large_drop_fails(self, suite_doc):
        doc, base = self._docs(suite_doc)
        doc["benches"]["kernel_events"]["normalized"] *= 0.5
        problems = perf.check_regression(doc, base, tolerance=0.25)
        assert problems and "kernel_events" in problems[0]

    def test_schema_mismatch_fails(self, suite_doc):
        doc, base = self._docs(suite_doc)
        base["schema"] = perf.SCHEMA_VERSION - 1
        problems = perf.check_regression(doc, base)
        assert problems and "schema" in problems[0]

    def test_new_bench_without_baseline_is_skipped(self, suite_doc):
        doc, base = self._docs(suite_doc)
        doc["benches"]["brand_new"] = {"normalized": 0.0001,
                                       "rate_key": "x_per_s"}
        assert perf.check_regression(doc, base) == []

    def test_diverged_sweep_fails(self, suite_doc):
        doc, base = self._docs(suite_doc)
        for d in (doc, base):
            d["benches"]["figure_sweep"] = {
                "normalized": 1.0, "rate_key": "speedup",
                "identical": True, "jobs": 2}
        doc["benches"]["figure_sweep"]["identical"] = False
        problems = perf.check_regression(doc, base)
        assert problems and "determinism" in problems[0]

    def test_strict_tolerance_caps_loose_flag(self, suite_doc):
        # kernel_events may never drop more than 20%, even when the
        # blanket --tolerance is looser.
        doc, base = self._docs(suite_doc)
        doc["benches"]["kernel_events"]["normalized"] *= 0.7
        problems = perf.check_regression(doc, base, tolerance=0.50)
        assert problems and "kernel_events" in problems[0]
        assert "20%" in problems[0]

    def test_strict_tolerance_only_covers_named_benches(self, suite_doc):
        doc, base = self._docs(suite_doc)
        doc["benches"]["link_frames"]["normalized"] *= 0.7
        assert perf.check_regression(doc, base, tolerance=0.50) == []


class TestCheckSpeedup:
    def _doc(self, speedup, cpu_count):
        return {"benches": {"figure_sweep": {"speedup": speedup,
                                             "jobs": 4}},
                "host": {"cpu_count": cpu_count}}

    def test_pass_above_minimum(self):
        assert perf.check_speedup(self._doc(2.1, 4), 1.3) is None

    def test_fail_below_minimum(self):
        problem = perf.check_speedup(self._doc(0.9, 4), 1.3)
        assert problem and "figure_sweep" in problem

    def test_single_core_host_skips_with_notice(self, capsys):
        assert perf.check_speedup(self._doc(0.9, 1), 1.3) is None
        assert "skipped" in capsys.readouterr().err

    def test_no_sweep_is_not_applicable(self):
        assert perf.check_speedup({"benches": {}, "host": {}}, 1.3) is None


class TestCli:
    def test_digest_output_and_exit_code(self, capsys):
        assert perf.main(["--quick", "--repeat", "1", "--no-sweep",
                          "--digest"]) == 0
        out = capsys.readouterr().out
        assert '"kernel_events"' in out and '"wall_s"' not in out

    def test_check_against_own_output(self, tmp_path, capsys):
        # --out writes before --check reads, so one invocation checking
        # its own document exercises the gate plumbing deterministically
        # (a second timed run would race wall-clock noise against the
        # strict kernel_events/scale_smallio caps on a loaded host).
        out_path = tmp_path / "BENCH_perf.json"
        assert perf.main(["--quick", "--repeat", "1", "--no-sweep",
                          "--out", str(out_path),
                          "--check", str(out_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_render_mentions_reference_gain(self, capsys):
        assert perf.main(["--quick", "--repeat", "1", "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "vs seed" in out

    def test_profile_prints_cumulative_tables(self, capsys):
        assert perf.main(["--quick", "--profile", "3"]) == 0
        out = capsys.readouterr().out
        assert "kernel_events (top 3 by cumulative)" in out
        assert "scale_smallio" in out and "cumtime" in out
