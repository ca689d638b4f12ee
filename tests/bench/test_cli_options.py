"""Options the chaos, scrub, telemetry and trace subcommands share with
scale and shard: ``--quick`` changes only defaults, sizes are checked at
parse time, and JSON and text modes exit alike."""

import pytest

from repro.bench import chaos, cli, scrub, telemetry, tracecli

#: Each subcommand's entry point, with options that keep one run small.
SMALL = {
    "chaos": (chaos.main, ["--systems", "nfs", "--classes", "link",
                           "--rates", "0", "--passes", "1"]),
    "scrub": (scrub.main, ["--systems", "nfs", "--rates", "0",
                           "--passes", "1"]),
    "telemetry": (telemetry.main, ["--passes", "1"]),
    "trace": (tracecli.main, ["--passes", "1"]),
}


@pytest.mark.parametrize("command", sorted(SMALL))
def test_quick_changes_only_the_defaults(command, capsys):
    main, small = SMALL[command]
    outputs = []
    for quick in ([], ["--quick"]):
        assert main([*small, "--blocks", "8", "--seed", "7", "--json",
                     *quick]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _bad(command, option, value, bound=">= 1"):
    """One out-of-range number, given to ``repro-bench command``."""
    suffix = "" if value == "0" else f"={value}"
    return pytest.param(command, option, value, f"must be {bound}, got "
                        f"{value}", id=f"{command}-{option}{suffix}")


#: Sizes, counts and intervals every CLI checks at parse time.
OUT_OF_RANGE = [
    *[_bad(command, option, "0") for command in sorted(SMALL)
      for option in ("--blocks", "--passes")],
    _bad("trace", "--block-kb", "0"),
    _bad("trace", "--block-kb", "-4"),
    _bad("telemetry", "--block-kb", "0"),
    _bad("telemetry", "--width", "0"),
    _bad("trace", "--sample-interval", "0", bound="> 0"),
    _bad("trace", "--sample-interval", "-5", bound="> 0"),
    _bad("telemetry", "--interval", "0", bound="> 0"),
    # Every CLI that takes add_campaign_args' --jobs, and perf's own.
    *[_bad(command, "--jobs", value)
      for command in ("chaos", "scrub", "telemetry", "scale", "shard",
                      "table2", "perf") for value in ("0", "-3")],
    _bad("perf", "--repeat", "0"),
    # perf's gate options: a tolerance outside [0, 1) makes the rate gate
    # always fail or switches it off (at 1 every floor is zero), and a
    # speedup floor <= 0 can never fail.
    _bad("perf", "--tolerance", "-0.5", bound="in [0, 1)"),
    _bad("perf", "--tolerance", "7", bound="in [0, 1)"),
    _bad("perf", "--tolerance", "1", bound="in [0, 1)"),
    _bad("perf", "--min-speedup", "0", bound="> 0"),
    _bad("perf", "--profile", "0"),
    _bad("chaos", "--rates", "-0.5", bound="in [0, 1]"),
    _bad("scrub", "--rates", "1.5", bound="in [0, 1]"),
    # A count where 0 means none, and a list that names nothing.
    _bad("trace", "--waterfalls", "-2", bound=">= 0"),
    pytest.param("telemetry", "--systems", ",",
                 "must name at least one system, got ','",
                 id="telemetry---systems=,"),
    pytest.param("telemetry", "--series", ",",
                 "must name at least one series, got ','",
                 id="telemetry---series=,"),
]


@pytest.mark.parametrize("command,option,value,message", OUT_OF_RANGE)
def test_cli_rejects_out_of_range_sizes_at_parse_time(command, option,
                                                      value, message,
                                                      capsys):
    small = SMALL[command][1] if command in SMALL else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *small, option, value, "--json"])
    assert exc.value.code == 2
    assert f"argument {option}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_trace_exits_1_when_spans_disagree_with_the_meter(
        monkeypatch, capsys, mode):
    monkeypatch.setattr(tracecli, "span_sum_mean", lambda spans: 0.0)
    assert tracecli.main(["--quick", *mode]) == 1


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_telemetry_exits_2_when_series_matches_nothing(tmp_path, capsys,
                                                      mode):
    """A ``--series`` filter that selects none of the recorded series
    is an error, not an empty result: exit 2, one line on stderr,
    nothing on stdout and no dump written."""
    dump = tmp_path / "t.jsonl"
    assert cli.main(["telemetry", *SMALL["telemetry"][1], "--quick",
                     "--series", "nosuchseries", "--dump", str(dump),
                     *mode]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("repro-bench telemetry: --series nosuchseries matches "
                   "none of the 36 recorded series\n")
    assert not dump.exists()
