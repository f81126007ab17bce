"""Plain-text and Markdown table emitters for the benchmark harness.

Formats results in the layout of the paper's tables (rows = indexes,
column groups = datasets x metrics) so measured output can be eyeballed
against the original numbers.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_markdown", "format_ranking", "human_bytes"]


def human_bytes(n: float) -> str:
    """1234567 -> '1.2 MB' (storage columns)."""
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GB"


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    title: str = "",
    first_column: str | None = None,
) -> str:
    """Aligned plain-text table from a list of dicts: every key any row
    has is a column, in first-seen order; a row without it shows blank."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    if first_column and first_column in columns:
        columns.remove(first_column)
        columns.insert(0, first_column)
    rendered = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rendered:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def format_markdown(
    rows: Sequence[Mapping[str, object]],
    first_column: str | None = None,
) -> str:
    """GitHub-flavoured Markdown table (for EXPERIMENTS.md)."""
    if not rows:
        return "(no rows)"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    if first_column and first_column in columns:
        columns.remove(first_column)
        columns.insert(0, first_column)
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_cell(row.get(col, "")) for col in columns) + " |")
    return "\n".join(lines)


def format_ranking(scores: Mapping[str, float], metric: str, ascending: bool = True) -> str:
    """Ranking line like the paper's Tables 5 and 7 (1st = best)."""
    ordered = sorted(scores.items(), key=lambda kv: kv[1], reverse=not ascending)
    parts = [f"{i + 1}. {name} ({_cell(value)})" for i, (name, value) in enumerate(ordered)]
    return f"{metric}: " + "  ".join(parts)
