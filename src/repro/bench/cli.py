"""``repro-bench`` command line: regenerate any table or figure.

Examples::

    repro-bench table2
    repro-bench fig7 --quick
    repro-bench all --seed 7 --jobs 4
    repro-bench ablations --jobs 8
    repro-bench chaos --quick        # fault-injection campaigns
    repro-bench perf --quick         # engine microbenchmarks
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import traceback
from typing import Any, Callable, Dict, Tuple

from ..hw.nic import NotifyMode
from . import ablations, baseline, decompose, figures, report
from .plot import chart_from_sweep
from .runner import add_campaign_args, seeded_params

#: Subcommands with their own option sets: name -> module with ``main``.
SUBCOMMANDS = {
    "trace": "tracecli",      # request spans, waterfalls, exports
    "chaos": "chaos",         # fault-injection degradation campaigns
    "perf": "perf",           # engine microbenchmarks
    "telemetry": "telemetry",  # sampled gauge timelines
    "scale": "scale",         # client counts vs the admission scheduler
    "shard": "shard",         # server counts over striped files
    "scrub": "scrub",         # silent corruption vs checksums
}


def _sweep(fn: Callable[..., Any], **quick_sizes: int) -> Callable[..., Any]:
    """A collector running the sweep ``fn`` at its own sizes, or at
    ``quick_sizes`` under ``--quick``; keyword overrides pass through."""
    def collect(quick, params, jobs, **overrides):
        return fn(params=params, jobs=jobs,
                  **(quick_sizes if quick else {}), **overrides)
    return collect


def _show_table2(results, rerun) -> None:
    print(report.render_table2(results, baseline.PAPER_TABLE2))


def _show_fig3(results, rerun) -> None:
    print("Fig. 3 — client read throughput (paper plateaus: NFS ~65, "
          "pre-posting ~235, hybrid ~230, DAFS ~230 MB/s)")
    print(report.render_sweep(results, "throughput_mb_s", "MB/s"))
    print()
    print(chart_from_sweep(results, "throughput_mb_s", ymax=250.0,
                           ylabel="MB/s", xlabel="block KB"))


def _show_fig4(results, rerun) -> None:
    print("Fig. 4 — client CPU utilization (DAFS <15% at >=64 KB)")
    print(report.render_sweep(results, "client_cpu", "%", scale=100.0))


def _show_fig5(results, rerun) -> None:
    print("Fig. 5 — Berkeley DB throughput vs bytes copied per record (KB)")
    flat = {s: {k: {"mb_s": v} for k, v in series.items()}
            for s, series in results.items()}
    print(report.render_sweep(flat, "mb_s", "MB/s"))


def _show_table3(results, rerun) -> None:
    print("Table 3 — 4 KB read response time")
    print(report.render_table3(results, figures.PAPER_TABLE3))


def _show_fig6(results, rerun) -> None:
    print("Fig. 6 — PostMark throughput vs client cache hit ratio")
    print(report.render_fig6(results))


def _show_fig7(fig7, rerun) -> None:
    print("Fig. 7 — server throughput, two clients (interrupt-mode server)")
    print(report.render_fig7(fig7))
    print()
    print(chart_from_sweep(fig7, "throughput_mb_s", ymax=250.0,
                           ylabel="MB/s", xlabel="cache block KB"))
    poll = rerun(block_sizes_kb=(4,), server_mode=NotifyMode.POLL)
    dafs = poll["dafs"][4]["throughput_mb_s"]
    odafs = poll["odafs"][4]["throughput_mb_s"]
    print(f"\npolling server @4KB: DAFS {dafs:.0f} MB/s (paper ~170), "
          f"ODAFS {odafs:.0f} MB/s, gain {(odafs / dafs - 1) * 100:.0f}% "
          f"(paper ~32%)")


def _show_ablations(data, rerun) -> None:
    print("Interrupts vs polling (4 KB, two clients):")
    print(report.render_dict_table(data["polling"], "server mode"))
    print("\nORDMA success rate (server cache fraction of file set):")
    print(report.render_dict_table(data["ordma_hit_rate"],
                                   "cache fraction"))
    print("\nDirectory replacement policy (hot/cold mix):")
    print(report.render_dict_table(data["directory_policy"], "policy"))
    print("\nRegistration caching (NFS hybrid, 64 KB):")
    print(report.render_dict_table(data["registration_cache"],
                                   "registrations"))
    print("\nNIC TLB size (ORDMA, reduced 200 us miss penalty):")
    print(report.render_dict_table(data["nic_tlb"], "TLB entries"))
    print("\nBatch I/O (4 KB reads):")
    print(report.render_dict_table(data["batch_io"], "batch size"))
    print("\nSFS-mix sensitivity (throughput relative to 1.0x, knob x4):")
    for knob, series in data["overhead_sensitivity"].items():
        base = series[1.0]
        scaled = {k: round(v / base, 3) for k, v in sorted(series.items())}
        print(f"  {knob}: {scaled}")
    print("\nServer VM pressure (reclaim interval us; 0 = none):")
    print(report.render_dict_table(data["memory_pressure"], "interval"))
    print("\nClient scaling (4 KB reads through the client cache):")
    for system, series in data["client_scaling"].items():
        print(f"  {system}:")
        print("  " + report.render_dict_table(
            series, "clients").replace("\n", "\n  "))
    print("\nRead/write mix (ODAFS gain vs read ratio):")
    print(report.render_dict_table(data["read_write_mix"], "read ratio"))
    print("\nNFS transport: UDP vs host TCP (64 KB streaming):")
    print(report.render_dict_table(data["tcp_transport"], "transport"))
    print("\nEager vs lazy directory building (cold pass, warm server):")
    print(report.render_dict_table(data["eager_vs_lazy_refs"], "strategy"))
    print("\nCapability verification:")
    for key, value in data["capabilities"].items():
        print(f"  {key}: {value:.2f}")


def _show_decompose(result, rerun) -> None:
    print("Overhead decomposition o(m) = m*o_byte + o_io (Section 2.2 fit)")
    print(decompose.render(result))


_fig3_collect = _sweep(figures.fig3_fig4, blocks_per_point=192)

#: target -> (collect, show). ``collect(quick, params, jobs)`` returns the
#: raw results that ``--json`` prints; ``show(results, rerun)`` prints the
#: tables, where ``rerun(**overrides)`` collects again with other sweep
#: arguments (Fig. 7 adds its polling-server cells this way).
TARGETS: Dict[str, Tuple[Callable[..., Any], Callable[..., None]]] = {
    "table2": (lambda quick, params, jobs: baseline.table2(params=params),
               _show_table2),
    "fig3": (_fig3_collect, _show_fig3),
    "fig4": (_fig3_collect, _show_fig4),
    "fig5": (_sweep(figures.fig5_berkeley_db, n_records=128), _show_fig5),
    "table3": (_sweep(figures.table3_response_time, n_blocks=256,
                      measure_blocks=128), _show_table3),
    "fig6": (_sweep(figures.fig6_postmark, n_files=256, transactions=1500),
             _show_fig6),
    "fig7": (_sweep(figures.fig7_server_throughput, blocks_per_file=384),
             _show_fig7),
    "ablations": (lambda quick, params, jobs: ablations.collect(
        params=params, quick=quick, jobs=jobs), _show_ablations),
    "decompose": (lambda quick, params, jobs: decompose.decompose(
        params=params, n_ios=48 if quick else 96), _show_decompose),
}


def main(argv=None) -> int:
    """Entry point for the ``repro-bench`` console script."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module = importlib.import_module(
            f"{__package__}.{SUBCOMMANDS[argv[0]]}")
        return module.main(list(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the FAST'03 paper's tables and figures. "
                    "Extra subcommands, each with its own options "
                    "(repro-bench SUBCOMMAND --help): "
                    + ", ".join(SUBCOMMANDS) + ".")
    parser.add_argument("target", choices=[*TARGETS, "all"],
                        help="which table/figure to regenerate (or one "
                             "of the subcommands above)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (same shapes, faster)")
    add_campaign_args(parser, seed_help="master seed for every simulation "
                                        "RNG stream (default: the "
                                        "calibrated Params seed)")
    args = parser.parse_args(argv)
    params = seeded_params(args.seed)
    if args.json:
        if args.target == "all":
            parser.error("--json not supported for 'all'")
        try:
            result = TARGETS[args.target][0](args.quick, params, args.jobs)
        except Exception:
            traceback.print_exc()
            return 1
        print(json.dumps({args.target: result}, indent=2, default=str))
        return 0
    targets = list(TARGETS) if args.target == "all" else [args.target]
    failures = 0
    for name in targets:
        start = time.time()
        print(f"=== {name} ===")
        collect, show = TARGETS[name]
        rerun = functools.partial(collect, args.quick, params, args.jobs)
        try:
            show(rerun(), rerun)
        except Exception:
            # A failed target must not mask the others, but the process
            # exit code has to say the run was not clean.
            traceback.print_exc()
            failures += 1
            print(f"[{name}: FAILED]\n")
            continue
        print(f"[{name}: {time.time() - start:.1f}s]\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
