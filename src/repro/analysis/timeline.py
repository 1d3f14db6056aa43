"""Decision provenance: causal cones, per-round timelines, DAG renderers.

Input is either a live :class:`~repro.obs.causal.CausalCollector` (e.g.
``RunResult.causal``) or the ``{"type": "causal"}`` record dicts produced
by :meth:`~repro.obs.causal.CausalCollector.to_records` and read back
from JSONL — so provenance questions ("why did process i decide v?")
work identically in-process and post-mortem::

    from repro.analysis.timeline import CausalGraph, render_explanation

    graph = CausalGraph.from_source(outcome.result.causal)
    print(render_explanation(graph, pid=0))

The happens-before DAG has two edge families: explicit send→deliver
edges (each deliver record carries its ``cause`` send eid) and implicit
program order (consecutive events of one pid).  The *causal cone* of an
event is everything reachable backwards through both — for a decide
event, exactly the messages (and local steps) that could have influenced
the decision, and nothing delivered elsewhere.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional, Sequence, Union

from ..system.messages import BURST

__all__ = [
    "CausalGraph",
    "causal_records",
    "cone_json",
    "render_dot",
    "render_explanation",
    "render_timeline",
]

Source = Union[Sequence[dict], Any]


def causal_records(source: Source) -> list[dict]:
    """Normalise a collector or a mixed record stream to causal records.

    Accepts a :class:`~repro.obs.causal.CausalCollector` (anything with
    ``to_records``) or any iterable of record dicts (e.g. the output of
    :func:`repro.obs.export.read_jsonl`, which may interleave span/event/
    metrics records).
    """
    if hasattr(source, "to_records"):
        return list(source.to_records())
    return [r for r in source if r.get("type") == "causal"]


class CausalGraph:
    """The happens-before DAG of one run, queryable by event id.

    Built from causal record dicts; ``eid`` values index ``self.events``
    (records are sorted by eid, and eids are dense by construction).
    """

    def __init__(self, records: Sequence[dict]):
        self.events: list[dict] = sorted(records, key=lambda r: r["eid"])
        for i, ev in enumerate(self.events):
            if ev["eid"] != i:
                raise ValueError(
                    f"causal records are not dense: position {i} has eid "
                    f"{ev['eid']} (missing or duplicated events?)"
                )
        #: pid -> eids of that process's events, in program order.
        self.by_pid: dict[int, list[int]] = defaultdict(list)
        #: eid -> index of the event within its process's program order.
        self._order: dict[int, int] = {}
        for ev in self.events:
            pids = self.by_pid[ev["pid"]]
            self._order[ev["eid"]] = len(pids)
            pids.append(ev["eid"])
        #: (send_eid, deliver_eid) cross-process edges.
        self.edges: list[tuple[int, int]] = [
            (ev["cause"], ev["eid"])
            for ev in self.events
            if ev.get("cause") is not None
        ]
        #: Processes in the run: the length of its longest vector clock
        #: (a burst's send stands for one copy to each).
        self.n = max((len(ev["clock"]) for ev in self.events), default=0)

    @classmethod
    def from_source(cls, source: Source) -> "CausalGraph":
        """Build from a collector or any record stream (see
        :func:`causal_records`)."""
        return cls(causal_records(source))

    def __len__(self) -> int:
        return len(self.events)

    def predecessors(self, eid: int) -> list[int]:
        """Immediate happens-before predecessors: program-order previous
        event plus (for deliveries) the causing send."""
        ev = self.events[eid]
        preds: list[int] = []
        idx = self._order[eid]
        if idx > 0:
            preds.append(self.by_pid[ev["pid"]][idx - 1])
        if ev.get("cause") is not None:
            preds.append(ev["cause"])
        return preds

    def causal_cone(self, eid: int) -> list[int]:
        """Every event that happens-before (or is) ``eid``, ascending."""
        if not 0 <= eid < len(self.events):
            raise IndexError(f"no event {eid} (have {len(self.events)})")
        seen = {eid}
        frontier = [eid]
        while frontier:
            nxt = frontier.pop()
            for prior in self.predecessors(nxt):
                if prior not in seen:
                    seen.add(prior)
                    frontier.append(prior)
        return sorted(seen)

    def decide_eid(self, pid: int) -> Optional[int]:
        """Eid of the (first) decide event of ``pid``, if any."""
        for eid in self.by_pid.get(pid, ()):
            if self.events[eid]["kind"] == "decide":
                return eid
        return None

    def decided_pids(self) -> list[int]:
        """Pids with at least one decide event, ascending."""
        return sorted(
            pid for pid in self.by_pid if self.decide_eid(pid) is not None
        )


def _label(ev: dict, n: int) -> str:
    """One-line human rendering of a causal event record; a burst's send
    is a broadcast of one copy to each of the ``n`` processes."""
    kind = ev["kind"]
    if kind == "send" and ev["dst"] == BURST:
        core = f"broadcast {ev['src']}->0..{n - 1} ({n} copies) tag={ev['tag']!r}"
    elif kind == "send":
        core = f"send {ev['src']}->{ev['dst'] if ev['dst'] >= 0 else 'ALL'}"
        core += f" tag={ev['tag']!r}"
    elif kind == "deliver":
        cause = ev.get("cause")
        core = f"deliver {ev['src']}->{ev['dst']} tag={ev['tag']!r}"
        if cause is not None:
            core += f" cause=e{cause}"
    else:
        core = kind
    extras = ev.get("fields") or {}
    if extras:
        core += " {" + ", ".join(f"{k}={v}" for k, v in extras.items()) + "}"
    return core


def render_timeline(
    source: Source,
    *,
    pids: Optional[Sequence[int]] = None,
    max_events_per_time: int = 40,
) -> str:
    """Per-round (sync) / per-step (async) text timeline of a run.

    Events are grouped by their scheduler ``time`` stamp; within one
    group they appear in recording order with Lamport timestamps.  Long
    groups are truncated with an ellipsis row (async floods).
    """
    graph = source if isinstance(source, CausalGraph) else CausalGraph.from_source(source)
    if not graph.events:
        return "(no causal events recorded)"
    wanted = None if pids is None else set(pids)
    by_time: dict[Any, list[dict]] = defaultdict(list)
    for ev in graph.events:
        if wanted is not None and ev["pid"] not in wanted:
            continue
        by_time[ev["time"]].append(ev)
    lines: list[str] = []
    order = sorted(by_time, key=lambda t: (t is None, t))
    for t in order:
        group = by_time[t]
        lines.append(f"t={t}  ({len(group)} events)")
        for i, ev in enumerate(group):
            if i >= max_events_per_time:
                lines.append(f"  ... ({len(group) - max_events_per_time} more)")
                break
            lines.append(
                f"  e{ev['eid']:<5} [pid {ev['pid']}] L={ev['lamport']:<4} "
                f"{_label(ev, graph.n)}"
            )
    return "\n".join(lines)


def render_explanation(
    source: Source,
    pid: int,
    *,
    max_events: int = 200,
) -> str:
    """Text causal cone of ``pid``'s decision, grouped by time.

    The cone contains exactly the events that happen-before the decide
    event — only messages delivered *to* this process (directly or
    transitively) appear; deliveries at unrelated processes do not.
    """
    graph = source if isinstance(source, CausalGraph) else CausalGraph.from_source(source)
    eid = graph.decide_eid(pid)
    if eid is None:
        decided = graph.decided_pids()
        return (
            f"process {pid} recorded no decide event"
            + (f" (decided pids: {decided})" if decided else " (no decisions recorded)")
        )
    cone = graph.causal_cone(eid)
    decide = graph.events[eid]
    kinds: dict[str, int] = defaultdict(int)
    for e in cone:
        kinds[graph.events[e]["kind"]] += 1
    header = (
        f"decision of process {pid}: e{eid} at t={decide['time']} "
        f"L={decide['lamport']} clock={decide['clock']}"
    )
    if decide.get("fields"):
        header += " " + str(decide["fields"])
    counts = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    lines = [
        header,
        f"causal cone: {len(cone)}/{len(graph.events)} events ({counts})",
    ]
    by_time: dict[Any, list[int]] = defaultdict(list)
    for e in cone:
        by_time[graph.events[e]["time"]].append(e)
    shown = 0
    for t in sorted(by_time, key=lambda t: (t is None, t)):
        lines.append(f"t={t}:")
        for e in by_time[t]:
            if shown >= max_events:
                lines.append(f"  ... ({len(cone) - shown} more cone events)")
                return "\n".join(lines)
            ev = graph.events[e]
            lines.append(f"  e{ev['eid']:<5} [pid {ev['pid']}] {_label(ev, graph.n)}")
            shown += 1
    return "\n".join(lines)


def cone_json(source: Source, pid: int) -> dict:
    """JSON-ready causal cone of ``pid``'s decision.

    ``{"pid", "decide_eid", "cone_size", "total_events", "events",
    "edges"}`` — ``events`` is the cone's causal records, ``edges`` the
    send→deliver edges with both endpoints inside the cone.
    """
    graph = source if isinstance(source, CausalGraph) else CausalGraph.from_source(source)
    eid = graph.decide_eid(pid)
    if eid is None:
        return {
            "pid": pid,
            "decide_eid": None,
            "cone_size": 0,
            "total_events": len(graph.events),
            "events": [],
            "edges": [],
        }
    cone = graph.causal_cone(eid)
    inside = set(cone)
    return {
        "pid": pid,
        "decide_eid": eid,
        "cone_size": len(cone),
        "total_events": len(graph.events),
        "events": [graph.events[e] for e in cone],
        "edges": [[a, b] for a, b in graph.edges if a in inside and b in inside],
    }


_DOT_KIND_STYLE = {
    "send": 'shape=box',
    "deliver": 'shape=ellipse',
    "decide": 'shape=doubleoctagon, style=filled, fillcolor="#cfe8cf"',
    "iterate": 'shape=diamond',
}


def render_dot(
    source: Source,
    *,
    pid: Optional[int] = None,
) -> str:
    """Graphviz DOT of the happens-before DAG.

    With ``pid`` given, restricted to the causal cone of that process's
    decision (solid arrows: send→deliver; dashed: program order).
    Processes become horizontal ranks via per-pid clusters.
    """
    graph = source if isinstance(source, CausalGraph) else CausalGraph.from_source(source)
    if pid is not None:
        eid = graph.decide_eid(pid)
        keep = set(graph.causal_cone(eid)) if eid is not None else set()
    else:
        keep = {ev["eid"] for ev in graph.events}
    lines = [
        "digraph causal {",
        "  rankdir=LR;",
        '  node [fontsize=9, fontname="monospace"];',
    ]
    for proc in sorted(graph.by_pid):
        eids = [e for e in graph.by_pid[proc] if e in keep]
        if not eids:
            continue
        lines.append(f"  subgraph cluster_p{proc} {{")
        lines.append(f'    label="pid {proc}";')
        for e in eids:
            ev = graph.events[e]
            style = _DOT_KIND_STYLE.get(ev["kind"], "shape=ellipse")
            kind = ev["kind"]
            if kind == "send" and ev["dst"] == BURST:
                kind = f"broadcast x{graph.n}"
            text = f"e{e}\\n{kind} t={ev['time']}"
            if ev["kind"] in ("send", "deliver") and ev.get("tag") is not None:
                text += f"\\n{ev['tag']}"
            lines.append(f'    e{e} [label="{text}", {style}];')
        # program-order chain (dashed)
        for a, b in zip(eids, eids[1:]):
            lines.append(f"    e{a} -> e{b} [style=dashed, color=gray];")
        lines.append("  }")
    for a, b in graph.edges:
        if a in keep and b in keep:
            lines.append(f"  e{a} -> e{b};")
    lines.append("}")
    return "\n".join(lines)
