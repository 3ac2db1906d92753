"""Rendering of figure series: ASCII tables and JSON dumps.

The benchmark harness prints, for every figure, the same series the
paper plots — x coordinate against one column per curve — and can dump
them as JSON for EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from repro.experiments.figures import FigureResult

__all__ = [
    "render_series_table",
    "series_to_json",
    "render_figure",
    "ascii_chart",
]


def _fmt(value: float, metric: str) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    if metric == "count":
        return f"{int(value)}"
    return f"{value:.3e}"


def render_series_table(result: FigureResult, x_label: str | None = None) -> str:
    """Tabulate one figure's series as aligned ASCII columns."""
    labels = list(result.series)
    x_label = x_label or ("bound")
    header = [x_label, *labels]
    rows = [header]
    for i, x in enumerate(result.xs):
        row = [f"{x:g}"]
        for label in labels:
            row.append(_fmt(float(result.series[label][i]), result.metric))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for ri, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_figure(result: FigureResult) -> str:
    """Header plus table — the standard bench output block."""
    what = "number of solutions" if result.metric == "count" else "average failure probability"
    title = (
        f"{result.figure} [{result.experiment}]: {what} "
        f"({result.n_instances} instances, grid={result.grid})"
    )
    return f"{title}\n{render_series_table(result)}"


def ascii_chart(  # repro-lint: disable=API001 used by examples/
    result: FigureResult, height: int = 12, width: int = 64
) -> str:
    """Plot a figure's series as an ASCII chart (one glyph per curve).

    Count figures use a linear y-axis; failure figures a log10 axis
    (mirroring the paper's log-scale plots).  NaN points are gaps.
    Overlapping curves show the glyph of the last series drawn.
    """
    if height < 3 or width < 8:
        raise ValueError("chart needs height >= 3 and width >= 8")
    glyphs = "oxs+*#%@"
    labels = list(result.series)
    xs = np.asarray(result.xs, dtype=float)

    def transform(vals: np.ndarray) -> np.ndarray:
        if result.metric == "count":
            return vals.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log10(np.where(vals > 0, vals, np.nan))

    ys = {label: transform(np.asarray(v, dtype=float)) for label, v in result.series.items()}
    flat = np.concatenate([v[~np.isnan(v)] for v in ys.values()] or [np.array([0.0])])
    if flat.size == 0:
        return "(no data points)"
    lo, hi = float(flat.min()), float(flat.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    grid_rows = [[" "] * width for _ in range(height)]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    x_span = max(x_hi - x_lo, 1e-12)
    for li, label in enumerate(labels):
        glyph = glyphs[li % len(glyphs)]
        for x, y in zip(xs, ys[label]):
            if math.isnan(y):
                continue
            col = int((x - x_lo) / x_span * (width - 1))
            row = int((y - lo) / (hi - lo) * (height - 1))
            grid_rows[height - 1 - row][col] = glyph
    y_top = f"{hi:.3g}" if result.metric == "count" else f"1e{hi:+.1f}"
    y_bot = f"{lo:.3g}" if result.metric == "count" else f"1e{lo:+.1f}"
    lines = [f"{y_top:>9} +" + "".join(grid_rows[0])]
    for row in grid_rows[1:-1]:
        lines.append(" " * 9 + " |" + "".join(row))
    lines.append(f"{y_bot:>9} +" + "".join(grid_rows[-1]))
    lines.append(" " * 11 + f"{x_lo:<10g}{'':^{max(width - 20, 0)}}{x_hi:>10g}")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={label}" for i, label in enumerate(labels)
    )
    lines.append(" " * 11 + legend)
    return "\n".join(lines)


def series_to_json(  # repro-lint: disable=API001 used by examples/
    result: FigureResult,
) -> str:
    """Serialize a figure result to JSON (NaN -> null)."""
    payload: dict[str, Any] = {
        "figure": result.figure,
        "experiment": result.experiment,
        "metric": result.metric,
        "n_instances": result.n_instances,
        "grid": result.grid,
        "x": [float(x) for x in result.xs],
        "series": {
            label: [None if math.isnan(float(v)) else float(v) for v in values]
            for label, values in result.series.items()
        },
    }
    return json.dumps(payload, indent=2)
