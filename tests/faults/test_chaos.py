"""Chaos campaign runner: determinism, completion, CLI surface."""

import json

import pytest

from repro.bench.chaos import (WarmScan, campaign_failures, chaos_campaign,
                               main, run_point)
from repro.params import default_params
from repro.sim import SimulationError


FAULTY = "0.1000"


def tiny_campaign(seed=7):
    # 10% rate: the workload is tiny, so a lower rate can legitimately
    # draw zero faults for a class with few decision points.
    return chaos_campaign(params=default_params().copy(seed=seed),
                          systems=("nfs", "odafs"),
                          fault_classes=("link", "nic"),
                          rates=(0.0, 0.1), blocks=12, passes=2)


def test_campaign_is_deterministic_for_a_fixed_seed():
    a, b = tiny_campaign(seed=7), tiny_campaign(seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_campaign_seed_actually_matters():
    # Different seed, different fault arrivals: some point must differ.
    a, b = tiny_campaign(seed=7), tiny_campaign(seed=8)
    assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


def test_all_points_complete_and_faults_degrade_throughput():
    results = tiny_campaign()
    assert campaign_failures(results) == 0
    for system, per_class in results.items():
        for fault_class, series in per_class.items():
            clean = series["0.0000"]
            faulty = series[FAULTY]
            assert clean["ops_failed"] == 0
            assert clean["faults_injected"] == 0
            assert faulty["faults_injected"] > 0
            # Faults cost time: the faulty point is never faster.
            assert faulty["sim_us"] >= clean["sim_us"]


def test_odafs_fallback_fraction_is_reported():
    results = tiny_campaign()
    faulty = results["odafs"]["nic"][FAULTY]
    # Rejected optimistic accesses must show up as RPC fallbacks.
    assert faulty["ordma_faults"] > 0
    assert faulty["rpc_fallback_frac"] > \
        results["odafs"]["nic"]["0.0000"]["rpc_fallback_frac"]


def test_run_point_survives_every_class_at_5_percent():
    for fault_class in ("link", "nic", "disk", "server"):
        point, _ = run_point("dafs", fault_class, 0.05, blocks=12,
                             passes=2)
        assert point["completed"], fault_class
        assert point["ops_ok"] > 0, fault_class


def test_a_kernel_error_in_the_scan_is_raised_not_reported_as_a_hang(
        monkeypatch):
    def reads(self):
        yield from self.cluster.clients[0].open(self.name)
        yield 42

    monkeypatch.setattr(WarmScan, "reads", reads)
    with pytest.raises(SimulationError, match="yielded non-event 42"):
        run_point("odafs", "link", 0.0, blocks=8, passes=1)


def test_a_scan_hung_on_a_lost_event_is_reported_incomplete(monkeypatch):
    def reads(self):
        yield from self.cluster.clients[0].open(self.name)
        yield self.cluster.sim.event()  # nothing ever triggers it

    monkeypatch.setattr(WarmScan, "reads", reads)
    point, _ = run_point("odafs", "link", 0.0, blocks=8, passes=1)
    assert point["completed"] is False
    assert point["ops_ok"] == 0


def test_cli_json_output_round_trips(capsys):
    rc = main(["--seed", "7", "--json", "--systems", "nfs",
               "--classes", "link", "--rates", "0.0", "0.05",
               "--blocks", "8"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 7
    assert "nfs" in out["results"]
    assert set(out["results"]["nfs"]["link"]) == {"0.0000", "0.0500"}


def test_cli_dump_writes_loadable_trace(tmp_path, capsys):
    path = tmp_path / "chaos.jsonl"
    rc = main(["--seed", "7", "--systems", "odafs", "--classes", "nic",
               "--rates", "0.25", "--blocks", "12", "--json",
               "--dump", str(path)])
    assert rc == 0
    capsys.readouterr()
    from repro.sim import load_jsonl
    dump = load_jsonl(str(path))
    kinds = {ev.kind for ev in dump.events}
    assert "fault" in kinds          # injected faults round-trip
    assert dump.finished_spans()     # spans survived the dump too
