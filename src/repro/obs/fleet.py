"""Fleet observability: stitch per-node trails, run probes post-hoc.

A live cluster (``python -m repro launch`` / ``python -m repro node``)
writes one schema-2 JSONL trail per node.  Each trail's causal records
come from that node's own :class:`~repro.obs.causal.CausalCollector`, so
event ids are *node-local* and a deliver of a remote message has
``cause=None`` — the matching send lives in another file.  This module
rebuilds the cluster-wide happens-before DAG:

1. **Load** every trail (:func:`load_trails`), identifying each node
   from its ``transport.node.*`` events (fallbacks: the header run-id
   suffix, then the majority causal pid).
2. **Dedup** remote deliveries: the transport already drops retransmits
   by wire sequence number, but stitching tolerates trails from older
   or foreign writers by dropping any repeated ``(node, origin)`` pair.
3. **Merge** all events in Lamport order — ``(lamport, node,
   local_eid)`` is a valid topological order of the union because
   Lamport timestamps strictly increase along each node's program order
   and every deliver's timestamp exceeds its send's — then renumber
   eids densely and remap local ``cause`` references.
4. **Stitch** the cross-process edges: a remote deliver carries
   ``fields["origin"] = [origin_node, origin_eid]``
   (:meth:`~repro.obs.causal.CausalCollector.on_deliver_remote`); its
   ``cause`` becomes the merged eid of that send.  Delivers whose
   origin send is missing are counted as *orphans* (an incomplete
   collection — some node's trail is absent or truncated).

The merged records feed the ordinary
:class:`~repro.analysis.timeline.CausalGraph`, so ``repro fleet
explain`` renders cross-node decision cones with the same code path as
the in-process ``repro explain``.  Wall clocks never order anything:
each trail's header ``wall_time`` is reported as skew evidence only.

Post-hoc probes (:func:`fleet_probes`) put the stitched evidence to the
one oracle in :mod:`repro.core.problems`: the decision vectors each node
logged go through ``ProblemSpec.check`` (validity + agreement), and the
payload digests each receiver was sent, per ``(pid, tag, round)``
instance of the merged graph, through ``broadcast_conflicts`` (one
logical broadcast must not show two faces).  Each node logs the run
knobs of its topology document; the ``RunSpec`` is rebuilt from them the
way the node rebuilt it from the file
(:meth:`~repro.core.runspec.RunSpec.from_document`) and its
``resolved_inputs()`` are the cluster's inputs — so a trail directory is
self-contained evidence: no repo state, just the files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from ..analysis.timeline import CausalGraph
from ..system.messages import BURST
from .export import read_jsonl
from .probes import ProbeReport, build_probes, fold_verdict

if TYPE_CHECKING:
    from ..core.runspec import RunSpec

__all__ = [
    "NodeTrail",
    "StitchReport",
    "aggregate_metrics",
    "discover_trails",
    "fleet_probes",
    "load_trail",
    "load_trails",
    "stitch",
]

_RUN_ID_NODE = re.compile(r"-n(\d+)$")


@dataclass
class NodeTrail:
    """One node's parsed JSONL trail."""

    path: str
    node_id: int
    run_id: Optional[str]
    wall_time: Optional[float]
    causal: list[dict[str, Any]]
    events: list[dict[str, Any]]
    metrics: dict[str, Any] = field(default_factory=dict)

    def event_fields(self, name: str) -> Optional[dict[str, Any]]:
        """Fields of the first ``name`` trace event, if recorded."""
        for ev in self.events:
            if ev.get("name") == name:
                return dict(ev.get("fields") or {})
        return None


def _infer_node_id(
    run_id: Optional[str],
    events: Sequence[dict[str, Any]],
    causal: Sequence[dict[str, Any]],
) -> Optional[int]:
    for ev in events:
        if str(ev.get("name", "")).startswith("transport.node."):
            fields = ev.get("fields") or {}
            if "pid" in fields:
                return int(fields["pid"])
    if run_id is not None:
        match = _RUN_ID_NODE.search(run_id)
        if match:
            return int(match.group(1))
    counts: dict[int, int] = {}
    for rec in causal:
        counts[int(rec["pid"])] = counts.get(int(rec["pid"]), 0) + 1
    if counts:
        return max(sorted(counts), key=lambda pid: counts[pid])
    return None


def load_trail(path: str) -> NodeTrail:
    """Parse one JSONL trail into a :class:`NodeTrail`."""
    records = read_jsonl(path)
    run_id: Optional[str] = None
    wall_time: Optional[float] = None
    causal: list[dict[str, Any]] = []
    events: list[dict[str, Any]] = []
    metrics: dict[str, Any] = {}
    for rec in records:
        kind = rec.get("type")
        if kind == "header":
            run_id = rec.get("run_id")
            wall_time = rec.get("wall_time")
        elif kind == "causal":
            causal.append(rec)
        elif kind == "event":
            events.append(rec)
        elif kind == "metrics":
            metrics = rec.get("metrics") or {}
    node_id = _infer_node_id(run_id, events, causal)
    if node_id is None:
        raise ValueError(
            f"{path}: cannot identify the node (no transport.node.* "
            "event, no -n<pid> run-id suffix, no causal records)"
        )
    return NodeTrail(
        path=str(path), node_id=int(node_id), run_id=run_id,
        wall_time=wall_time, causal=causal, events=events, metrics=metrics,
    )


def discover_trails(directory: str) -> list[str]:
    """The ``*.jsonl`` files under one directory, sorted by name."""
    from pathlib import Path

    return sorted(str(p) for p in Path(directory).glob("*.jsonl"))


def load_trails(paths: Sequence[str]) -> list[NodeTrail]:
    """Load trails and order them by node id (duplicates are an error)."""
    trails = [load_trail(p) for p in paths]
    seen: dict[int, str] = {}
    for trail in trails:
        if trail.node_id in seen:
            raise ValueError(
                f"two trails claim node {trail.node_id}: "
                f"{seen[trail.node_id]} and {trail.path}"
            )
        seen[trail.node_id] = trail.path
    return sorted(trails, key=lambda t: t.node_id)


@dataclass(frozen=True)
class StitchReport:
    """What the merge did — the completeness evidence for a fleet graph."""

    nodes: tuple[int, ...]
    events: int
    sends: int
    delivers: int
    stitched_edges: int
    orphan_delivers: int
    duplicate_delivers_dropped: int
    run_ids: tuple[Optional[str], ...]
    #: max - min of the trails' header wall-clock anchors, seconds.
    wall_time_skew: Optional[float]

    @property
    def complete(self) -> bool:
        """True when every remote deliver found its send."""
        return self.orphan_delivers == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "nodes": list(self.nodes),
            "events": self.events,
            "sends": self.sends,
            "delivers": self.delivers,
            "stitched_edges": self.stitched_edges,
            "orphan_delivers": self.orphan_delivers,
            "duplicate_delivers_dropped": self.duplicate_delivers_dropped,
            "complete": self.complete,
            "run_ids": list(self.run_ids),
            "wall_time_skew": self.wall_time_skew,
        }


def stitch(trails: Sequence[NodeTrail]) -> tuple[CausalGraph, StitchReport]:
    """Merge per-node trails into one cluster-wide :class:`CausalGraph`.

    Returns the graph (dense re-numbered eids, remapped ``cause`` edges,
    cross-node send→deliver edges stitched via the ``origin`` stamps)
    plus a :class:`StitchReport` describing the merge.
    """
    dropped_dupes = 0
    merged: list[tuple[tuple[int, int, int], int, int, dict[str, Any]]] = []
    for trail in trails:
        seen_origins: set[tuple[int, int]] = set()
        for rec in trail.causal:
            origin = (rec.get("fields") or {}).get("origin")
            if origin is not None:
                key = (int(origin[0]), int(origin[1]))
                if key in seen_origins:
                    dropped_dupes += 1  # retransmit from an older writer
                    continue
                seen_origins.add(key)
            local_eid = int(rec["eid"])
            sort_key = (int(rec["lamport"]), trail.node_id, local_eid)
            merged.append((sort_key, trail.node_id, local_eid, dict(rec)))
    merged.sort(key=lambda item: item[0])

    renumber: dict[tuple[int, int], int] = {}
    for new_eid, (_, node, local_eid, _) in enumerate(merged):
        renumber[(node, local_eid)] = new_eid

    records: list[dict[str, Any]] = []
    sends = delivers = stitched = orphans = 0
    for new_eid, (_, node, local_eid, rec) in enumerate(merged):
        rec["eid"] = new_eid
        if rec.get("cause") is not None:
            rec["cause"] = renumber[(node, int(rec["cause"]))]
        kind = rec.get("kind")
        if kind == "send":
            sends += 1
        elif kind == "deliver":
            delivers += 1
            origin = (rec.get("fields") or {}).get("origin")
            if origin is not None:
                send_eid = renumber.get((int(origin[0]), int(origin[1])))
                if send_eid is None:
                    orphans += 1  # sender's trail missing or truncated
                else:
                    rec["cause"] = send_eid
                    stitched += 1
        records.append(rec)

    report = StitchReport(
        nodes=tuple(t.node_id for t in trails),
        events=len(records),
        sends=sends,
        delivers=delivers,
        stitched_edges=stitched,
        orphan_delivers=orphans,
        duplicate_delivers_dropped=dropped_dupes,
        run_ids=tuple(t.run_id for t in trails),
        wall_time_skew=_wall_skew(trails),
    )
    return CausalGraph(records), report


def _wall_skew(trails: Sequence[NodeTrail]) -> Optional[float]:
    anchors = [t.wall_time for t in trails if t.wall_time is not None]
    if len(anchors) < 2:
        return None
    return float(max(anchors) - min(anchors))


# ---------------------------------------------------------------------------
# post-hoc probes
# ---------------------------------------------------------------------------


def _topology_spec(trails: Sequence[NodeTrail]) -> "RunSpec":
    """The cluster's run, from any trail's topology event."""
    from ..core.runspec import RunSpec  # call time: obs imports before core

    for trail in trails:
        fields = trail.event_fields("transport.node.topology")
        if fields:
            return RunSpec.from_document(
                fields, envelope=("pid", "instance", "kind")
            )
    raise ValueError(
        "no trail carries a transport.node.topology event — trails "
        "predate fleet tracing, or tracing was off"
    )


def _decisions(trails: Sequence[NodeTrail]) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for trail in trails:
        fields = trail.event_fields("transport.node.decision")
        if fields and fields.get("decided") and fields.get("decision") is not None:
            out[trail.node_id] = np.atleast_1d(
                np.asarray(fields["decision"], dtype=float)
            )
    return out


def _delta_used(trails: Sequence[NodeTrail]) -> Optional[float]:
    used = [
        float(fields["delta_used"])
        for fields in (
            trail.event_fields("transport.node.decision") or {}
            for trail in trails
        )
        if fields.get("delta_used") is not None
    ]
    return max(used) if used else None


def _sent_digests(graph: CausalGraph) -> dict[Any, dict[Any, str]]:
    """``{(pid, tag, round): {receiver: payload digest}}`` over the sends
    of the merged graph (every send carries a digest, stamped by the
    live transport); a burst's one send event is sent to every process.
    A sequential re-send to the *same* receiver is sequencing, not a
    second face, so the first digest per receiver stands."""
    sent: dict[Any, dict[Any, str]] = {}
    for ev in graph.events:
        fields = ev.get("fields") or {}
        digest = fields.get("digest")
        if ev.get("kind") != "send" or digest is None or ev.get("tag") is None:
            continue
        instance = (int(ev["pid"]), str(ev["tag"]), fields.get("round"))
        receivers = sent.setdefault(instance, {})
        dst = ev.get("dst")
        for receiver in range(graph.n) if dst == BURST else (dst,):
            receivers.setdefault(receiver, digest)
    return sent


def fleet_probes(
    trails: Sequence[NodeTrail],
    graph: Optional[CausalGraph] = None,
    *,
    names: Sequence[str] = ("all",),
    inject: Optional[str] = None,
) -> tuple[list[ProbeReport], dict[str, Any]]:
    """Judge stitched fleet evidence post hoc, reported per probe.

    Returns ``(reports, context)`` where ``context`` records what was
    checked (decisions, derived parameters, any injection).  ``inject``
    perturbs the logged decisions with a :mod:`repro.dst.injections`
    bug — for demonstrating that a violating cluster would be caught,
    not for honest validation.
    """
    # Call-time imports: obs must stay importable before core.
    from ..core.problems import broadcast_conflicts, problem_for
    from ..dst.injections import inject as perturb

    spec = _topology_spec(trails)
    assert spec.d is not None
    decisions = _decisions(trails)
    if inject is not None:
        decisions = perturb(inject, decisions, spec.input_scale, spec.d)
    problem = problem_for(
        spec.algorithm, spec.d, spec.f, k=spec.k, p=spec.p,
        epsilon=spec.epsilon, delta=spec.delta,
    ).achieved(_delta_used(trails))
    probes = build_probes(names, problem)
    for probe in probes:
        if probe.name == "broadcast" and graph is not None:
            sent = {k: v for k, v in _sent_digests(graph).items() if len(v) >= 2}
            probe.checks += len(sent)
            conflicts = broadcast_conflicts(sent)
            for pid, tag, round_ in sorted(conflicts, key=repr):
                first, other = conflicts[(pid, tag, round_)]
                probe.record(
                    round_ if isinstance(round_, int) else None,
                    f"send instance (pid {pid}, tag {tag!r}) carried distinct "
                    f"payload digests to receivers {first} and {other}",
                    pids=(pid,),
                )
    # Live runs are honest, so *all* inputs are honest inputs.
    reports = fold_verdict(
        [probe.report() for probe in probes], problem,
        problem.check(spec.resolved_inputs(), decisions),
    )
    context = {
        "algorithm": spec.algorithm,
        "n": spec.n,
        "d": spec.d,
        "f": spec.f,
        "seed": spec.seed,
        "decided_nodes": sorted(decisions),
        "delta": getattr(problem, "delta", None),
        "epsilon": getattr(problem, "epsilon", None),
        "inject": inject,
    }
    return list(reports), context


# ---------------------------------------------------------------------------
# fleet metrics aggregation
# ---------------------------------------------------------------------------


def aggregate_metrics(trails: Sequence[NodeTrail]) -> dict[str, Any]:
    """Merge the trails' metrics snapshots into one fleet snapshot.

    Counters sum; gauges keep the extreme envelope (``max`` of maxes,
    ``min`` of mins, last value = max across nodes — peaks, not means);
    histograms merge ``count``/``total``/``min``/``max`` exactly and
    carry no quantiles: the nodes' quantiles do not determine the merged
    samples' (each node's own ``/metrics`` endpoint stays the source).
    """
    out: dict[str, Any] = {}
    for trail in trails:
        for name, record in trail.metrics.items():
            kind = record.get("type")
            if kind == "counter":
                prev = out.setdefault(name, {"type": "counter", "value": 0})
                prev["value"] += int(record["value"])
            elif kind == "gauge":
                if not record.get("updates"):
                    continue
                prev = out.setdefault(name, {
                    "type": "gauge", "value": None, "max": -np.inf,
                    "min": np.inf, "updates": 0,
                })
                prev["updates"] += int(record["updates"])
                prev["max"] = max(prev["max"], float(record["max"]))
                prev["min"] = min(prev["min"], float(record["min"]))
                value = float(record["value"])
                prev["value"] = (
                    value if prev["value"] is None
                    else max(prev["value"], value)
                )
            elif kind == "histogram":
                count = int(record.get("count", 0))
                prev = out.setdefault(name, {
                    "type": "histogram", "count": 0, "total": 0.0,
                    "min": np.inf, "max": -np.inf,
                })
                if not count:
                    continue
                prev["count"] += count
                prev["total"] += float(record["total"])
                prev["min"] = min(prev["min"], float(record["min"]))
                prev["max"] = max(prev["max"], float(record["max"]))
    for record in out.values():
        if record["type"] == "histogram" and record["count"]:
            record["mean"] = record["total"] / record["count"]
    return dict(sorted(out.items()))
