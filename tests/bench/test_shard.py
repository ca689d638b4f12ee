"""Determinism and acceptance tests for the shard scale-out campaign.

Three layers of regression guard:

* byte-identical JSON for same-seed campaigns (serial and parallel);
* the crash-failover point completes over replica reroutes, never hangs;
* the scale-out claim — ODAFS aggregate small-I/O throughput grows
  near-linearly 1 -> 4 servers while NFS stays clearly sublinear.
"""

import json

import pytest

from repro.bench import shard
from repro.nas.shard import ShardRouter
from repro.params import default_params
from repro.proto.rpc import RPCError

#: Tiny same-shape grid so the determinism tests stay fast. 48 blocks
#: (three 64 KB reads) is the smallest file whose 2-server slices outgrow
#: the 20-block client caches, so the measured pass misses them.
TINY = dict(systems=("nfs", "odafs"), mixes=("smallio",),
            server_counts=(1, 2), n_clients=2, blocks=48,
            failover=False)


def smallio_point(system, n_servers, placement="stripe"):
    """One campaign small-I/O point at the defaults: 8 clients read a
    warm 128-block file twice in ``APP_BLOCK`` reads."""
    return shard._shard_point(("smallio", system, n_servers, placement,
                               8, 128, 0, 0), default_params())


@pytest.fixture(scope="module")
def tiny_campaign():
    return shard.shard_campaign(**TINY)


class TestDeterminism:
    def test_same_seed_campaigns_byte_identical(self, tiny_campaign):
        again = shard.shard_campaign(**TINY)
        assert json.dumps(tiny_campaign, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_parallel_grid_byte_identical_to_serial(self, tiny_campaign):
        parallel = shard.shard_campaign(jobs=2, **TINY)
        assert json.dumps(tiny_campaign, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_distinct_seeds_differ(self):
        kwargs = dict(systems=("nfs",), mixes=("postmark",),
                      server_counts=(2,), n_clients=2, n_files=8,
                      transactions=8, failover=False)
        a = shard.shard_campaign(params=default_params().copy(seed=1),
                                 **kwargs)
        b = shard.shard_campaign(params=default_params().copy(seed=2),
                                 **kwargs)
        # PostMark draws file choices (and the hash placement its ring)
        # from seeded streams, so different seeds must be observable.
        assert json.dumps(a, sort_keys=True) != \
            json.dumps(b, sort_keys=True)

    def test_both_mixes_emit_full_grids(self):
        results = shard.shard_campaign(
            systems=("odafs",), server_counts=(1, 2), n_clients=2,
            blocks=48, n_files=8, transactions=8, failover=False)
        for mix in shard.MIXES:
            points = results[mix]["odafs"]
            assert set(points) == {"1", "2"}
            for point in points.values():
                assert point["ops"] > 0
                assert point["throughput_mb_s"] > 0
        # Striping engaged: the 2-server smallio point fanned reads out.
        assert results["smallio"]["odafs"]["2"]["fanout_reads"] > 0
        # One server runs plain clients: each read of both passes is one
        # segment, and none fans out.
        one = results["smallio"]["odafs"]["1"]
        assert one["fanout_reads"] == 0
        assert one["routed_segments"] == 2 * one["ops"]

    def test_summary_reports_speedups_over_one_server(self, tiny_campaign):
        summary = tiny_campaign["smallio"]["summary"]
        for system in ("nfs", "odafs"):
            speedup = summary[system]["speedup"]
            assert speedup["1"] == 1.0
            assert speedup["2"] > 0


class TestFailover:
    def test_crash_point_completes_via_replica(self, monkeypatch):
        monkeypatch.setattr(shard, "FAILOVER_READS", 60)
        point = shard.run_failover_point("odafs", n_servers=2, blocks=32)
        assert point["completed"]
        assert point["server_crashes"] == 1
        assert point["cache_blocks_lost"] > 0
        assert point["ops_failed"] == 0          # the replica absorbed it
        assert point["ops_ok"] == 60
        assert point["failovers"] >= 1
        assert point["replica_reads"] >= 1
        assert point["down_marks"] >= 1

    @staticmethod
    def _break_reads(monkeypatch, exc):
        def read(self, name, offset, nbytes, app_buffer=None):
            raise exc
            yield  # a generator, like the real read

        monkeypatch.setattr(ShardRouter, "read", read)

    def test_programming_error_propagates(self, monkeypatch):
        """A bug in the workload is a failure, not a data point."""
        self._break_reads(monkeypatch, KeyError("bug"))
        monkeypatch.setattr(shard, "FAILOVER_READS", 4)
        with pytest.raises(KeyError):
            shard.run_failover_point("odafs", n_servers=2, blocks=8)

    def test_typed_error_is_reported_as_not_completed(self, monkeypatch):
        self._break_reads(monkeypatch, RPCError("gave up"))
        monkeypatch.setattr(shard, "FAILOVER_READS", 4)
        point = shard.run_failover_point("odafs", n_servers=2, blocks=8)
        assert point["completed"] is False

    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
    def test_cli_exits_1_when_the_failover_did_not_complete(
            self, monkeypatch, capsys, mode):
        real = shard.run_failover_point
        monkeypatch.setattr(shard, "run_failover_point", lambda *a, **kw:
                            {**real(*a, **kw), "completed": False})
        assert shard.main(["--systems", "nfs", "--servers", "1", "2",
                           "--mixes", "smallio", "--clients", "1",
                           "--blocks", "48", *mode]) == 1


class TestRender:
    def test_render_mentions_every_system_and_summary(self, tiny_campaign):
        text = shard.render_campaign(tiny_campaign)
        assert "nfs" in text and "odafs" in text
        assert "speedup" in text

    def test_render_reports_failover_outcome(self):
        results = {}  # minimal doc: just a failover point
        results["failover"] = {"completed": True, "ops_ok": 10,
                               "ops_failed": 0, "failovers": 1,
                               "replica_reads": 5,
                               "cache_blocks_lost": 16}
        text = shard.render_campaign(results)
        assert "completed" in text and "failover" in text

    def test_cli_json_round_trips(self, capsys):
        assert shard.main(["--systems", "odafs", "--mixes", "smallio",
                           "--servers", "1", "2", "--clients", "2",
                           "--blocks", "48", "--no-failover",
                           "--seed", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 3
        assert doc["placement"] == "stripe"
        assert set(doc["results"]["smallio"]["odafs"]) == {"1", "2"}

    def test_cli_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            shard.main(["--systems", "zfs"])

    @pytest.mark.parametrize("option, value, message", [
        ("--clients", "0", "must be >= 1, got 0"),
        ("--files", "0", "must be >= 1, got 0"),
        ("--blocks", "0", "must be >= 1, got 0"),
        ("--blocks", "20", "must be a multiple of 16"),
    ], ids=["clients", "files", "blocks", "blocks-partial-read"])
    def test_cli_rejects_out_of_range_sizes_at_parse_time(
            self, option, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            shard.main([option, value, "--systems", "nfs", "--servers",
                        "1", "--mixes", "postmark", "smallio",
                        "--no-failover", "--json"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_quick_changes_only_the_defaults(self, capsys):
        assert shard.main(["--quick", "--systems", "nfs", "--servers", "1",
                           "--mixes", "smallio", "postmark", "--clients",
                           "1", "--blocks", "48", "--files", "4",
                           "--transactions", "3", "--no-failover",
                           "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n_clients"], doc["blocks"]) == (1, 48)
        assert doc["results"]["smallio"]["nfs"]["1"]["ops"] == 3
        assert doc["results"]["postmark"]["nfs"]["1"]["ops"] == 3

    def test_campaign_rejects_unknown_mix(self):
        with pytest.raises(ValueError):
            shard.shard_campaign(mixes=("sfs",))


class TestClientCacheCheck:
    """A smallio point measures reads that cross the network: one served
    by a client cache is a failure, never a data point."""

    # 8 striped servers leave each a 16-block slice of the 128-block
    # file; hash placement at the default seed leaves one server 20
    # blocks at 4. Either fits the 20-block client cache.
    @pytest.mark.parametrize("n_servers, placement",
                             [(8, "stripe"), (4, "hash")])
    def test_point_raises_when_a_slice_fits_the_client_cache(
            self, n_servers, placement):
        with pytest.raises(shard.ClientCacheHitError,
                           match=f"at {n_servers} server"):
            smallio_point("odafs", n_servers, placement)

    @pytest.mark.parametrize("mode", [[], ["--json"],
                                      ["--json", "--jobs", "2"]],
                             ids=["text", "json", "json-jobs2"])
    def test_cli_exits_2_and_prints_no_results(self, capsys, mode):
        assert shard.main(["--systems", "odafs", "--servers", "4", "8",
                           "--mixes", "smallio", "--no-failover",
                           *mode]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro-bench shard: smallio odafs at 8 "
                              "server(s), 8 client(s), 128 blocks: 1024 "
                              "client-cache hit(s)")


class TestScaleOutClaim:
    @pytest.mark.slow
    def test_odafs_scales_near_linearly_nfs_sublinearly(self):
        """The campaign's acceptance criterion at the default operating
        point (8 clients, 128-block file, 64 KB application reads)."""
        points = {system: {n: smallio_point(system, n)
                           for n in (1, 4)}
                  for system in ("nfs", "odafs")}
        odafs = points["odafs"][4]["throughput_mb_s"] / \
            points["odafs"][1]["throughput_mb_s"]
        nfs = points["nfs"][4]["throughput_mb_s"] / \
            points["nfs"][1]["throughput_mb_s"]
        assert odafs >= 3.0                      # near-linear at 4 servers
        assert nfs <= 0.75 * odafs               # clearly sublinear
        # Why: one NFS server is CPU-saturated; spreading load frees the
        # server but the client-side copy cost caps the gain.
        assert points["nfs"][1]["server_cpu"] > 0.9
        # Both passes are counted: pass 1 fills every block over RPC,
        # the measured pass runs entirely over ORDMA — so ~half of all
        # cache fills were direct even including the warm-up.
        assert points["odafs"][4]["ordma_frac"] >= 0.45

    @pytest.mark.slow
    def test_full_quick_cli_byte_identical_across_runs(self, capsys):
        """The CI campaign-smoke gate in-process: two --quick --seed 7 JSON
        campaigns must match byte for byte."""
        assert shard.main(["--quick", "--seed", "7", "--json"]) == 0
        first = capsys.readouterr().out
        assert shard.main(["--quick", "--seed", "7", "--json"]) == 0
        assert capsys.readouterr().out == first
