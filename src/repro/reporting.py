"""ASCII table rendering for the CLI, benchmarks and examples.

Kept dependency-free so the benchmark scripts can print the exact
rows/series recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    rows: Sequence[Dict[str, object]], columns: Sequence[str] = None, title: str = ""
) -> str:
    """Render dict-rows as a fixed-width ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), max(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(col.rjust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    rows: Sequence[Dict[str, object]], columns: Sequence[str] = None, title: str = ""
) -> None:
    """Print :func:`format_table` output (with a trailing blank line)."""
    print(format_table(rows, columns, title))
    print()
