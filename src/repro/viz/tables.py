"""Plain-text table formatting for experiment reports.

Every experiment driver prints its results in the same row/column layout as
the corresponding table or figure caption of the paper, so the output can be
compared side by side with the published numbers.  EXPERIMENTS.md is written
from these tables.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Union

__all__ = ["format_table", "format_curve", "format_comparison"]

Cell = Union[str, int, float]


def _format_cell(value: Cell, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    title: str | None = None,
    precision: int = 2,
) -> str:
    """Render a list of rows as an aligned plain-text table."""
    if not headers:
        raise ValueError("headers must not be empty")
    rendered_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {row} has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in rendered_rows), 1)
        if rendered_rows
        else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_curve(
    name: str, values: Sequence[float], precision: int = 2, per_line: int = 10
) -> str:
    """Render an epoch-indexed curve compactly (used for Figures 3-4)."""
    lines = [f"{name} (epoch: value)"]
    chunk: List[str] = []
    for epoch, value in enumerate(values):
        chunk.append(f"{epoch:3d}: {value:.{precision}f}")
        if len(chunk) == per_line:
            lines.append("  " + "  ".join(chunk))
            chunk = []
    if chunk:
        lines.append("  " + "  ".join(chunk))
    return "\n".join(lines)


def format_comparison(
    paper_values: Mapping[str, float],
    measured_values: Mapping[str, float],
    title: str | None = None,
    precision: int = 2,
) -> str:
    """Two-column "paper vs measured" table used in EXPERIMENTS.md."""
    keys = list(paper_values.keys())
    rows: List[List[Cell]] = []
    for key in keys:
        measured = measured_values.get(key, float("nan"))
        rows.append([key, paper_values[key], measured])
    return format_table(["quantity", "paper", "measured"], rows, title=title, precision=precision)
