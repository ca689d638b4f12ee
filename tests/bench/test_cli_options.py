"""Options the chaos, scrub, telemetry and trace subcommands share with
scale and shard: ``--quick`` changes only defaults, sizes are checked at
parse time, and JSON and text modes exit alike."""

import pytest

from repro.bench import chaos, scrub, telemetry, tracecli

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


@pytest.mark.parametrize("option", ["--blocks", "--passes"])
@pytest.mark.parametrize("command", sorted(SMALL))
def test_cli_rejects_out_of_range_sizes_at_parse_time(command, option,
                                                      capsys):
    main, small = SMALL[command]
    with pytest.raises(SystemExit) as exc:
        main([*small, option, "0", "--json"])
    assert exc.value.code == 2
    assert "must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_trace_exits_1_when_spans_disagree_with_the_meter(
        monkeypatch, capsys, mode):
    monkeypatch.setattr(tracecli, "span_sum_mean", lambda spans: 0.0)
    assert tracecli.main(["--quick", *mode]) == 1
