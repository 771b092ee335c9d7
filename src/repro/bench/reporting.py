"""Plain-text rendering of experiment results (the tables/series the paper
plots).  Every experiment prints rows in the same x-axis order the paper
uses, so shapes can be compared side by side with the published figures."""

from __future__ import annotations

from typing import Any, Sequence


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    note: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    headers = [str(c) for c in columns]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [f"== {title} =="]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def format_series(title: str, x_name: str, xs: Sequence[Any], series: dict[str, Sequence[float]], note: str | None = None) -> str:
    """Render named series against a shared x axis."""
    columns = [x_name] + list(series)
    rows = [[x] + [series[name][i] for name in series] for i, x in enumerate(xs)]
    return format_table(title, columns, rows, note)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_sweep_summary(rows: Sequence[dict[str, Any]]) -> str:
    """Per-experiment wall-clock summary of a fabric sweep (``repro sweep``
    and ``benchmarks/run_full.sh`` end with one of these)."""
    return format_table(
        "sweep wall-clock summary",
        ["experiment", "cells", "jobs", "retried", "wall (s)"],
        [
            [r["experiment"], r["cells"], r["jobs"], r.get("retried", 0), r["wall_s"]]
            for r in rows
        ],
    )
