"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_cli(workload: str, trace: int, cwd: str = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    with open(os.path.join(HERE, "reference.json")) as f:
        assert sorted(json.load(f)["digests"]) == sorted(NAMES)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric(workload, trace, kind):
    out = run_cli(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        printed = [line.split() for line in lines[:-1]]
        assert any(words[0] == m["name"] and words[2] == m["unit"]
                   and words[3:5] == [f"({m['better']}", "is"]
                   for words in printed if len(words) > 4), m["name"]


def test_same_seed_runs_give_identical_digests():
    for name in NAMES:
        first = workloads.run_pass(name, 9, "tiny")
        second = workloads.run_pass(name, 9, "tiny")
        assert first.errors == [] and second.errors == []
        assert first.digest == second.digest
        assert first.counts == second.counts
    digests = {line for _ in range(2)
               for line in run_cli("shard-odafs-rw", 0).stdout.splitlines()
               if line.startswith("digest ")}
    assert len(digests) == 1


def test_benchmark_drives_the_campaign_points():
    from repro.bench import figures, scale
    from repro.hw.nic import NotifyMode
    blocks = workloads.SIZES["tiny"]["fig7-4k"]["blocks"]
    for cell in workloads.run_pass("fig7-4k", 2003, "tiny").cells:
        assert cell.point == figures._fig7_point(
            (cell.system, 4, blocks, NotifyMode.BLOCK.value,
             workloads.FIG7_APP_BLOCKS))
    size = workloads.SIZES["tiny"]["scale-nfs-32"]
    mine = workloads.run_pass("scale-nfs-32", 2003, "tiny").cells[0].point
    theirs = scale.run_point_smallio("nfs", size["clients"],
                                     blocks=size["blocks"])
    assert round(mine["throughput_mb_s"], 3) == theirs["throughput_mb_s"]
    assert round(mine["p95_us"], 2) == theirs["p95_us"]


def test_checks_flag_disagreeing_passes():
    passes = [workloads.run_pass("scale-nfs-32", 3, "tiny")
              for _ in range(2)]
    assert run.check(passes, "scale-nfs-32", 3, "tiny")[1] == 0
    passes[1].digest = "0" * 64
    messages, failed, _ = run.check(passes, "scale-nfs-32", 3, "tiny")
    assert failed == 1 and "digest" in messages[0]


def test_traced_pass_accounts_for_its_wall_time():
    untraced = workloads.run_pass("shard-odafs-rw", 4, "tiny")
    traced, trace = layers.traced_pass("shard-odafs-rw", 4, "tiny")
    assert traced.digest == untraced.digest
    assert traced.counts == untraced.counts
    assert 0.9 < sum(trace["self_s"].values()) / trace["point_s"] <= 1.01
    assert trace["counts"]["pages_built"] > 0
    assert trace["counts"]["cpu_charges"] > 0
    assert {s["name"] for s in trace["spans"]} == {"point",
                                                   *workloads.PHASES}


def test_layer_of_source_files():
    src = "/x/src/repro/"
    assert layers.layer_of(src + "cluster.py") == "cluster"
    assert layers.layer_of(src + "nas/shard/cluster.py") == "cluster"
    assert layers.layer_of(src + "nas/shard/router.py") == "nas.shard"
    assert layers.layer_of(src + "nas/delegation.py") == "nas.server"
    assert layers.layer_of(src + "sim/core.py") == "sim"
    assert layers.layer_of(src + "params.py") == "other"
    assert layers.layer_of("/usr/lib/python3/heapq.py") == "other"


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_cli("fig7-4k", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
