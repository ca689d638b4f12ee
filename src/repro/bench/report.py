"""Plain-text rendering of benchmark results, paper-style.

Each ``render_*`` helper prints the same rows/series the paper reports,
side by side with the published values where the paper states them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width table with a header rule."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def render_table2(measured: Dict[str, Dict[str, float]],
                  paper: Dict[str, Dict[str, float]]) -> str:
    """Table 2 rows, measured beside the paper's values."""
    rows = []
    for proto, vals in measured.items():
        ref = paper.get(proto, {})
        rows.append([
            proto,
            f"{vals['roundtrip_us']:.1f}",
            f"{ref.get('roundtrip_us', float('nan')):.0f}",
            f"{vals['bandwidth_mb_s']:.1f}",
            f"{ref.get('bandwidth_mb_s', float('nan')):.0f}",
        ])
    return format_table(
        ["Protocol", "RTT us", "(paper)", "BW MB/s", "(paper)"], rows)


def render_sweep(results: Dict[str, Dict[int, Dict[str, float]]],
                 metric: str, unit: str = "", scale: float = 1.0) -> str:
    """Render a {system: {x: {metric: v}}} sweep as systems x columns."""
    xs = sorted({x for series in results.values() for x in series})
    headers = ["system"] + [str(x) for x in xs]
    rows = []
    for system, series in results.items():
        row = [system]
        for x in xs:
            if x in series:
                row.append(f"{series[x][metric] * scale:.1f}")
            else:
                row.append("-")
        rows.append(row)
    title = f"{metric}{' (' + unit + ')' if unit else ''}"
    return title + "\n" + format_table(headers, rows)


def render_table3(measured: Dict[str, Dict[str, float]],
                  paper: Dict[str, Dict[str, float]]) -> str:
    """Table 3 response times, measured beside the paper's values."""
    labels = {"rpc_inline": "RPC in-line read",
              "rpc_direct": "RPC direct read",
              "ordma": "ORDMA read"}
    rows = []
    for key, label in labels.items():
        m = measured[key]
        p = paper[key]
        rows.append([label,
                     f"{m['in_mem']:.0f}", f"{p['in_mem']:.0f}",
                     f"{m['in_cache']:.0f}", f"{p['in_cache']:.0f}"])
    return format_table(
        ["I/O mechanism", "in mem. us", "(paper)",
         "in cache us", "(paper)"], rows)


def render_fig6(measured: Dict[str, Dict[int, Dict[str, float]]]) -> str:
    """Fig. 6 PostMark rows with the ODAFS gain column."""
    rows = []
    for pct in sorted(next(iter(measured.values()))):
        dafs = measured["dafs"][pct]
        odafs = measured["odafs"][pct]
        gain = odafs["txns_per_s"] / dafs["txns_per_s"] - 1.0
        rows.append([
            f"{pct}%",
            f"{dafs['txns_per_s']:.0f}",
            f"{odafs['txns_per_s']:.0f}",
            f"{gain * 100:.1f}% (paper ~34%)",
            f"{dafs['server_cpu'] * 100:.0f}%",
            f"{odafs['server_cpu'] * 100:.0f}%",
        ])
    return format_table(
        ["hit ratio", "DAFS txns/s", "ODAFS txns/s", "ODAFS gain",
         "DAFS srv CPU", "ODAFS srv CPU"], rows)


def render_fig7(measured: Dict[str, Dict[int, Dict[str, float]]]) -> str:
    """Fig. 7 server-throughput rows by cache block size."""
    rows = []
    for block_kb in sorted(next(iter(measured.values()))):
        dafs = measured["dafs"][block_kb]
        odafs = measured["odafs"][block_kb]
        rows.append([
            f"{block_kb} KB",
            f"{dafs['throughput_mb_s']:.0f}",
            f"{odafs['throughput_mb_s']:.0f}",
            f"{dafs['server_cpu'] * 100:.0f}%",
            f"{odafs['server_cpu'] * 100:.0f}%",
        ])
    return format_table(
        ["cache block", "DAFS MB/s", "ODAFS MB/s",
         "DAFS srv CPU", "ODAFS srv CPU"], rows)


def render_dict_table(results: Dict, key_header: str) -> str:
    """Render {key: {metric: value}} generically, floats to two places."""
    first = next(iter(results.values()))
    metrics = list(first)
    headers = [key_header] + metrics
    rows = []
    for key, vals in results.items():
        row = [str(key)]
        for metric in metrics:
            value = vals[metric]
            row.append(f"{value:.2f}"
                       if isinstance(value, float) else str(value))
        rows.append(row)
    return format_table(headers, rows)
