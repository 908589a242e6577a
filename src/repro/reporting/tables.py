"""Fixed-width ASCII table rendering."""

from __future__ import annotations

import math
from typing import Any, List, Sequence


def _render_cell(value: Any) -> str:
    """Human-friendly cell text: floats get 4 significant-ish digits."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if not math.isfinite(value):  # "nan", "inf" (a trial never recovered)
            return str(value)
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``columns`` as a boxed ASCII table.

    Raises:
        ValueError: if any row's width differs from the header's.
    """
    header = [str(c) for c in columns]
    body: List[List[str]] = []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row width {len(row)} does not match {len(header)} columns: {row!r}"
            )
        body.append([_render_cell(cell) for cell in row])

    widths = [len(h) for h in header]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"

    rule = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(rule)
    parts.append(line(header))
    parts.append(rule)
    for row in body:
        parts.append(line(row))
    parts.append(rule)
    return "\n".join(parts)
