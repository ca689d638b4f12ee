"""ASCII chart rendering for terminal reproduction of the figures.

The paper's figures are line charts; :func:`ascii_chart` renders the same
series in a terminal — one glyph per system, log-ish x handled by treating
sample points as categories (the paper's x axes are powers of two).
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Per-series glyphs, in assignment order.
GLYPHS = "o*x+#@%&"


def ascii_chart(series: Dict[str, Dict[int, float]],
                width: int = 60, height: int = 16,
                ylabel: str = "", xlabel: str = "",
                ymax: Optional[float] = None) -> str:
    """Render ``{label: {x: y}}`` as a fixed-size ASCII chart.

    X values become evenly spaced categories (sorted union of all series'
    sample points — matching the paper's power-of-two sweeps); Y is linear
    from zero to ``ymax`` (default: the data maximum).
    """
    if not series:
        raise ValueError("no series to plot")
    xs: List[int] = sorted({x for s in series.values() for x in s})
    if not xs:
        raise ValueError("series contain no points")
    top = ymax if ymax is not None else max(
        y for s in series.values() for y in s.values())
    if top <= 0:
        top = 1.0
    grid = [[" "] * width for _ in range(height)]
    col_of = {x: (int(i * (width - 1) / max(1, len(xs) - 1)))
              for i, x in enumerate(xs)}

    def row_of(y: float) -> int:
        frac = min(1.0, max(0.0, y / top))
        return (height - 1) - int(round(frac * (height - 1)))

    legend = []
    for glyph, (label, points) in zip(GLYPHS, series.items()):
        legend.append(f"{glyph}={label}")
        for x, y in points.items():
            row, col = row_of(y), col_of[x]
            grid[row][col] = glyph

    lines = []
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{top:8.0f} |"
        elif i == height - 1:
            label = f"{0:8.0f} |"
        else:
            label = " " * 8 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 8 + " +" + "-" * width)
    ticks = " " * 10
    for x in xs:
        col = col_of[x]
        tick = str(x)
        pos = 10 + col - len(tick) // 2
        if pos > len(ticks):
            ticks += " " * (pos - len(ticks))
        ticks += tick
    lines.append(ticks)
    footer = "  ".join(legend)
    if ylabel or xlabel:
        footer += f"   [y: {ylabel}]" if ylabel else ""
        footer += f" [x: {xlabel}]" if xlabel else ""
    lines.append(footer)
    return "\n".join(lines)


def chart_from_sweep(results: Dict[str, Dict[int, Dict[str, float]]],
                     metric: str, **kwargs) -> str:
    """Chart a {system: {x: {metric: value}}} sweep."""
    series = {system: {x: vals[metric]
                       for x, vals in points.items()}
              for system, points in results.items()}
    return ascii_chart(series, **kwargs)
