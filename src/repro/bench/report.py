"""Plain-text rendering of benchmark tables (the paper's figures as rows)."""

from __future__ import annotations

from typing import Any, Sequence


def format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.5f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    cells = [[format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append("|" + "|".join(f" {headers[i]:<{widths[i]}} " for i in range(len(headers))) + "|")
    lines.append(sep)
    for r in cells:
        lines.append("|" + "|".join(f" {r[i]:>{widths[i]}} " for i in range(len(headers))) + "|")
    lines.append(sep)
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a GitHub-flavored markdown table (for EXPERIMENTS.md)."""
    out = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(format_cell(v) for v in row) + " |")
    return "\n".join(out)
