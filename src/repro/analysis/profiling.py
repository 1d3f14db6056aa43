"""Human-readable views of exported traces.

The renderers take **trace records** — the dict form produced by
:func:`repro.obs.export.trace_to_records` /
:func:`repro.obs.export.read_jsonl` — so they work identically on an
in-memory tracer and on a JSONL file read back from disk
(:func:`render_summary`, :func:`render_flame`).

::

    from repro.obs import read_jsonl
    from repro.analysis.profiling import render_summary, render_flame

    records = read_jsonl("trace.jsonl")
    print(render_summary(records))
    print(render_flame(records))
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .tables import format_table

__all__ = [
    "SpanStats",
    "summarize_spans",
    "render_summary",
    "render_flame",
    "metrics_record",
]


@dataclass(frozen=True)
class SpanStats:
    """Aggregate timing of all spans sharing one name."""

    name: str
    count: int
    total: float
    mean: float
    max: float


def _spans(records: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    return [r for r in records if r.get("type") == "span"]


def _duration(span: dict[str, Any]) -> float:
    t1 = span.get("t1")
    return (t1 - span["t0"]) if t1 is not None else 0.0


def metrics_record(records: Sequence[dict[str, Any]]) -> Optional[dict[str, Any]]:
    """The metrics snapshot embedded in a trace, if any."""
    for rec in records:
        if rec.get("type") == "metrics":
            return rec["metrics"]
    return None


def summarize_spans(records: Sequence[dict[str, Any]]) -> list[SpanStats]:
    """Per-name aggregate timing, sorted by total time (descending)."""
    grouped: dict[str, list[float]] = defaultdict(list)
    for span in _spans(records):
        grouped[span["name"]].append(_duration(span))
    out = [
        SpanStats(
            name=name,
            count=len(ds),
            total=sum(ds),
            mean=sum(ds) / len(ds),
            max=max(ds),
        )
        for name, ds in grouped.items()
    ]
    return sorted(out, key=lambda s: (-s.total, s.name))


def render_summary(records: Sequence[dict[str, Any]]) -> str:
    """Text table: span timing aggregates plus headline metrics."""
    stats = summarize_spans(records)
    lines = []
    if stats:
        rows = [
            [s.name, s.count, f"{s.total:.6f}", f"{s.mean:.6f}", f"{s.max:.6f}"]
            for s in stats
        ]
        lines.append(
            format_table(
                ["span", "count", "total(s)", "mean(s)", "max(s)"],
                rows,
                title="span summary",
            )
        )
    else:
        lines.append("span summary: (no spans recorded)")
    metrics = metrics_record(records)
    if metrics:
        rows = []
        for name, m in metrics.items():
            if m.get("type") == "counter":
                rows.append([name, "counter", m["value"]])
            elif m.get("type") == "gauge":
                rows.append([name, "gauge", f"last={m['value']} max={m['max']}"])
            else:
                if m.get("count"):
                    rows.append(
                        [name, "histogram",
                         f"n={m['count']} mean={m['mean']:.6g} p99={m['p99']:.6g}"]
                    )
                else:
                    rows.append([name, "histogram", "n=0"])
        lines.append(format_table(["metric", "kind", "value"], rows,
                                  title="metrics"))
    return "\n\n".join(lines)


def render_flame(
    records: Sequence[dict[str, Any]],
    *,
    max_depth: int = 8,
    max_children: int = 25,
) -> str:
    """Indented span tree (a text 'flame graph'), durations at each node.

    Children are listed in start order; long sibling lists are truncated
    with an ellipsis row so async step floods stay readable.
    """
    spans = _spans(records)
    if not spans:
        return "(no spans recorded)"
    children: dict[Optional[int], list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        children[span.get("parent")].append(span)
    for sibs in children.values():
        sibs.sort(key=lambda s: s["t0"])

    lines: list[str] = []

    def emit(span: dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        tags = span.get("tags") or {}
        tag_str = (
            " {" + ", ".join(f"{k}={v}" for k, v in tags.items()) + "}"
            if tags
            else ""
        )
        lines.append(f"{indent}{span['name']}  {_duration(span):.6f}s{tag_str}")
        if depth + 1 > max_depth:
            return
        kids = children.get(span["id"], [])
        for i, kid in enumerate(kids):
            if i >= max_children:
                lines.append(
                    f"{indent}  ... ({len(kids) - max_children} more children)"
                )
                break
            emit(kid, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    return "\n".join(lines)
