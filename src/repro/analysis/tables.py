"""Plain-text table rendering for benchmark output.

The benchmarks print paper-vs-measured rows in the same layout as the
paper's Table 1; this tiny formatter keeps them aligned without pulling
in a dependency.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table"]


def _cell(x: Any) -> str:
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) >= 1e4 or 0 < abs(x) < 1e-3:
            return f"{x:.3e}"
        return f"{x:.4f}"
    return str(x)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render rows as an aligned monospace table."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)

