"""Subprocess-per-node deployment of the live transport.

The in-process :class:`~repro.system.transport.live.LiveTransport` runs a
whole cluster on one event loop — good for tests, useless for demonstrating
that the protocol stack really is transport-independent.  This module is
the other half of ROADMAP item 1: every node is its **own OS process**
(``python -m repro node``), finding its peers through a shared *topology
file*, and a launcher (``python -m repro launch``) that spawns a local
cluster and collects the decisions.

Topology file (JSON, schema ``repro.transport.topology/1``)::

    {
      "schema": "repro.transport.topology/1",
      "instance": "launch-averaging-tcp-n4-s0",
      "kind": "tcp",                 # or "uds"
      "algorithm": "averaging", "n": 4, "seed": 0, ...,   # the run knobs
      "rounds": 17,                  # resolved at build time (see below)
      "nodes": [{"id": 0, "kind": "tcp", "host": "127.0.0.1",
                 "port": 40001, "path": ""}, ...]
    }

The run knobs are exactly :data:`repro.core.runspec.RUN_KNOBS` (listed
in ``docs/transport.md``) — the document is written from a
:class:`~repro.core.runspec.RunSpec` and read back into one through that
table (:meth:`~repro.core.runspec.RunSpec.from_document`), so a missing,
unknown or wrong-typed knob is rejected when the file is loaded.
Everything a node needs is derived deterministically from that spec:

* **Inputs** — :meth:`~repro.core.runspec.RunSpec.resolved_inputs`, so a
  live cluster computes on the same inputs a simulated run with the same
  seed would.
* **Signature keys** (``broadcast="dolev-strong"``) — every node builds
  ``SignatureScheme(n, default_rng(seed))``; the scheme is deterministic in
  the rng, so n separate processes derive identical key tables without any
  key-distribution step.
* **Averaging round budget** — termination needs every node to run the
  same number of rounds; the contraction-bound estimate depends only on
  the (seed-derived) inputs, so it is resolved once at *build* time and
  written into the document rather than recomputed per node.

Live deployments execute **honest** runs only (the document has no
adversary vocabulary); Byzantine behaviour needs the deterministic
simulator (``transport="sim"``).

TCP ports are allocated by binding port 0 and releasing the socket just
before the node binds it again — racy in principle, fine in practice for
loopback CI clusters (and UDS paths have no such race).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from dataclasses import replace
from typing import Any, Callable, Optional

import numpy as np

from ..core.problems import agreement_diameter, problem_for
from ..core.runner import build_processes, resolved_rounds
from ..core.runspec import RunSpec
from ..system.transport.live import LiveNode, NodeAddress
from .grid import min_trial_size

__all__ = [
    "TOPOLOGY_SCHEMA",
    "allocate_addresses",
    "build_process",
    "build_topology",
    "launch_local",
    "load_topology",
    "run_node",
    "write_topology",
]

TOPOLOGY_SCHEMA = "repro.transport.topology/1"

#: Document keys beside the run knobs (the ``RunSpec.from_document``
#: envelope), with their JSON types.
_ENVELOPE = {"schema": str, "instance": str, "kind": str, "nodes": list}

#: RunSpec fields a document cannot carry: a live run is honest and
#: seed-derived, so a spec that sets one of them is refused.
_UNCARRIED = ("inputs", "adversary", "topology", "policy")


# ---------------------------------------------------------------------------
# topology documents
# ---------------------------------------------------------------------------


def _check_cluster(spec: RunSpec, kind: object, node_ids: list[int]) -> None:
    """What every topology document must satisfy, built or loaded."""
    if kind not in ("tcp", "uds"):
        raise ValueError(f"unknown transport kind {kind!r} (tcp or uds)")
    assert spec.n is not None and spec.d is not None
    floor = min_trial_size(spec.algorithm, spec.d, spec.f, spec.k)
    if spec.n < floor:
        raise ValueError(
            f"{spec.algorithm} with d={spec.d}, f={spec.f} needs "
            f"n >= {floor}, got {spec.n}"
        )
    if len(node_ids) != spec.n:
        raise ValueError(f"need {spec.n} node addresses, got {len(node_ids)}")
    if sorted(node_ids) != list(range(spec.n)):
        raise ValueError(f"node ids must be exactly 0..{spec.n - 1}")


def build_topology(
    spec: RunSpec,
    nodes: list[NodeAddress],
    *,
    kind: str,
    instance: Optional[str] = None,
) -> dict[str, Any]:
    """Assemble (and validate) the topology document for one cluster
    running ``spec`` on ``nodes``."""
    for name in _UNCARRIED:
        if getattr(spec, name) is not None:
            raise ValueError(
                f"a topology document cannot carry RunSpec.{name}; live "
                "clusters run honest, seed-derived specs"
            )
    _check_cluster(spec, kind, [a.node_id for a in nodes])
    # The runner's own round budget, resolved once here so every node
    # terminates after the identical round count.
    rounds = resolved_rounds(spec, spec.resolved_inputs())
    max_rounds = spec.max_rounds
    if spec.algorithm == "iterative":
        assert rounds is not None
        max_rounds = rounds + 2
    spec = replace(spec, rounds=rounds, max_rounds=max_rounds)
    return {
        "schema": TOPOLOGY_SCHEMA,
        "instance": instance
        or f"launch-{spec.algorithm}-{kind}-n{spec.n}-s{spec.seed}",
        "kind": kind,
        **spec.to_document(),
        "nodes": [a.as_dict() for a in sorted(nodes, key=lambda a: a.node_id)],
    }


def write_topology(path: str, doc: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_topology(path: str) -> dict[str, Any]:
    """Read a topology file; ``ValueError`` unless it is well-formed."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != TOPOLOGY_SCHEMA:
        raise ValueError(
            f"{path!r} is not a {TOPOLOGY_SCHEMA} document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    for key, typ in _ENVELOPE.items():
        if type(doc.get(key)) is not typ:
            raise ValueError(f"{key!r} must be a {typ.__name__}")
    spec = RunSpec.from_document(doc, envelope=_ENVELOPE)
    _check_cluster(
        spec, doc["kind"],
        [NodeAddress.from_dict(entry).node_id for entry in doc["nodes"]],
    )
    if spec.rounds is None and resolved_rounds(
        spec, spec.resolved_inputs()
    ) is not None:
        raise ValueError(
            f"{spec.algorithm} topologies must carry a resolved "
            "'rounds' (build_topology resolves it)"
        )
    return doc


def allocate_addresses(
    n: int, kind: str, *, host: str = "127.0.0.1", base_dir: str = ""
) -> list[NodeAddress]:
    """Concrete listen addresses for a local ``n``-node cluster.

    TCP ports come from the bind-0/close dance; UDS sockets live under
    ``base_dir`` (which must already exist).
    """
    if kind == "tcp":
        socks: list[socket.socket] = []
        try:
            for _ in range(n):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                s.bind((host, 0))
                socks.append(s)
            ports = [s.getsockname()[1] for s in socks]
        finally:
            for s in socks:
                s.close()
        return [
            NodeAddress(pid, "tcp", host=host, port=ports[pid])
            for pid in range(n)
        ]
    if kind == "uds":
        if not base_dir:
            raise ValueError("uds address allocation needs a base_dir")
        return [
            NodeAddress(pid, "uds", path=os.path.join(base_dir, f"n{pid}.sock"))
            for pid in range(n)
        ]
    raise ValueError(f"unknown transport kind {kind!r} (tcp or uds)")


# ---------------------------------------------------------------------------
# one node
# ---------------------------------------------------------------------------


def build_process(spec: RunSpec, pid: int) -> Any:
    """Materialise node ``pid``'s protocol process for a document's spec.

    Deterministic in the spec alone: n separate OS processes calling
    this with the same file agree on inputs, signature keys, and round
    budgets without exchanging a byte.
    """
    assert spec.n is not None
    if not 0 <= pid < spec.n:
        raise ValueError(f"pid {pid} outside 0..{spec.n - 1}")
    scheme = None
    if spec.broadcast == "dolev-strong":
        from ..system.crypto import SignatureScheme

        # Deterministic in the seed: every node derives the same keys.
        scheme = SignatureScheme(spec.n, np.random.default_rng(spec.seed))
    (process,) = build_processes(
        spec, spec.resolved_inputs(), [pid], rounds=spec.rounds, scheme=scheme
    )
    return process


def run_node(
    doc: dict[str, Any],
    pid: int,
    *,
    metrics_port: Optional[int] = None,
    linger: float = 0.0,
    trace_path: Optional[str] = None,
    emit: Optional[Callable[[dict[str, Any]], None]] = None,
) -> dict[str, Any]:
    """Run one cluster node to completion; returns its decision record.

    ``metrics_port`` serves live Prometheus text at ``/metrics`` for the
    whole run (plus ``linger`` extra seconds afterwards, so a scraper can
    still reach a node whose run finished first).  ``emit`` is called
    with the decision record *before* the linger window — the launcher
    reads decisions from stdout while slower nodes keep running.

    ``trace_path`` exports the node's trail as JSONL *with causal
    tracing on*: a per-process :class:`~repro.obs.causal.CausalCollector`
    stamps every send/deliver (the stamps ride the MSG frames to
    peers), and the trail carries ``transport.node.topology`` /
    ``transport.node.decision`` events so a directory of trails is
    self-contained input for :mod:`repro.obs.fleet` stitching and
    post-hoc probes.
    """
    import asyncio

    from ..obs.causal import CausalCollector, use_causal_collector
    from ..obs.export import write_jsonl
    from ..obs.metrics import MetricsRegistry, use_registry
    from ..obs.prom import MetricsServer
    from ..obs.tracer import Tracer, use_tracer

    spec = RunSpec.from_document(doc, envelope=_ENVELOPE)
    assert spec.n is not None
    addresses = {
        addr.node_id: addr for addr in map(NodeAddress.from_dict, doc["nodes"])
    }
    node = LiveNode(
        pid, spec.n, spec.f, build_process(spec, pid), addresses[pid],
        instance=doc["instance"], seed=spec.seed,
        max_rounds=spec.max_rounds, max_steps=spec.max_steps,
    )

    # What the handlers count (bcast.*, geometry.*) goes to the ambient
    # registry; _result() folds only the transport's counters.
    protocol = MetricsRegistry()
    server = None
    if metrics_port is not None:
        # Re-snapshotted per scrape: _result() folds the node's current
        # NetworkStats and per-link counters into a fresh registry.
        from ..obs.prom import render_exposition

        def source() -> str:
            return render_exposition(
                {**protocol.snapshot(), **node._result().metrics.snapshot()}
            )

        server = MetricsServer(source, port=metrics_port)
        server.start_background()

    async def drive() -> None:
        await node.start_server()
        node.connect_peers(addresses)
        try:
            await node.run()
        finally:
            await node.shutdown()

    tracer = Tracer(level="info")
    collector = CausalCollector(spec.n) if trace_path else None
    # The document's run knobs, verbatim: repro.obs.fleet rebuilds the
    # RunSpec from this event the way load_topology does from the file.
    tracer.event(
        "transport.node.topology",
        pid=pid, instance=doc["instance"], kind=doc["kind"],
        **spec.to_document(),
    )
    try:
        with use_tracer(tracer), use_causal_collector(collector), \
                use_registry(protocol):
            with tracer.span(
                "transport.node", pid=pid, instance=doc["instance"]
            ):
                asyncio.run(drive())
    finally:
        record = _node_record(doc, pid, node)
        if trace_path:
            decision = record["decision"]
            delta_used = getattr(node.process, "delta_used", None)
            tracer.event(
                "transport.node.decision",
                pid=pid, decided=record["decided"], decision=decision,
                rounds=record["rounds"], completed=record["completed"],
                delta_used=None if delta_used is None else float(delta_used),
            )
            write_jsonl(trace_path, tracer, node._result().metrics,
                        collector=collector,
                        run_id=f"{doc['instance']}-n{pid}")
        if emit is not None:
            emit(record)
        if server is not None and linger > 0:
            time.sleep(linger)
        if server is not None:
            server.shutdown()
    return record


def _node_record(doc: dict[str, Any], pid: int, node: LiveNode) -> dict[str, Any]:
    """The one-line JSON decision record ``repro node`` prints."""
    decided = node.ctx.decided
    decision = node.ctx.decision
    if decision is not None and hasattr(decision, "tolist"):
        decision = decision.tolist()
    elif isinstance(decision, tuple):
        decision = list(decision)
    live = {
        name: int(metric["value"])
        for name, metric in node._result().metrics.snapshot().items()
        if name.startswith("net.live.") and metric.get("type") == "counter"
    }
    return {
        "schema": "repro.transport.decision/1",
        "instance": doc["instance"],
        "algorithm": doc["algorithm"],
        "node": pid,
        "decided": bool(decided),
        "decision": decision if decided else None,
        "rounds": int(node.rounds_done),
        "completed": bool(node.completed),
        "messages_sent": int(node.stats.messages_sent),
        "messages_delivered": int(node.stats.messages_delivered),
        "live": live,
    }


# ---------------------------------------------------------------------------
# the local launcher
# ---------------------------------------------------------------------------


def launch_local(
    spec: RunSpec,
    *,
    kind: str,
    workdir: Optional[str] = None,
    timeout: float = 120.0,
    metrics_port: Optional[int] = None,
    linger: float = 0.0,
    trace_dir: Optional[str] = None,
    python: str = sys.executable,
) -> dict[str, Any]:
    """Spawn one subprocess per node of ``spec``; collect and judge the
    decisions.

    Returns a launch report.  ``ok`` holds when every node decided and
    completed, the decisions agree — bitwise (to solver tolerance) for
    the exact algorithms, within ``epsilon`` for the approximate ones —
    and, when trails were collected, the stitched fleet evidence is
    complete and every post-hoc probe is clean.

    ``metrics_port`` is a *base* port: node ``pid`` serves ``/metrics``
    on ``metrics_port + pid`` (every node, not just node 0), and the
    report records each node's scrape address under
    ``metrics_addresses``.  ``trace_dir`` collects one causal-traced
    JSONL trail per node and folds a ``fleet`` block (stitch report +
    probe verdicts) into the launch report.
    """
    owned_tmp: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-launch-")
        workdir = owned_tmp.name
    n = spec.n
    assert n is not None and spec.d is not None
    try:
        addresses = allocate_addresses(n, kind, base_dir=workdir)
        doc = build_topology(spec, addresses, kind=kind)
        topology_path = os.path.join(workdir, "topology.json")
        write_topology(topology_path, doc)

        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        metrics_addresses: dict[str, str] = {}
        procs: list[subprocess.Popen[str]] = []
        for pid in range(n):
            cmd = [python, "-m", "repro", "node",
                   "--topology", topology_path, "--id", str(pid)]
            if metrics_port is not None:
                cmd += ["--metrics-port", str(metrics_port + pid)]
                if linger > 0:
                    cmd += ["--linger", str(linger)]
                metrics_addresses[str(pid)] = (
                    f"http://127.0.0.1:{metrics_port + pid}/metrics"
                )
            if trace_dir:
                os.makedirs(trace_dir, exist_ok=True)
                cmd += ["--trace",
                        os.path.join(trace_dir, f"node-{pid}.jsonl")]
            procs.append(subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env,
            ))

        deadline = time.monotonic() + timeout
        records: list[Optional[dict[str, Any]]] = [None] * n
        errors: list[str] = []
        try:
            for pid, proc in enumerate(procs):
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    out, err = proc.communicate(timeout=remaining)
                except subprocess.TimeoutExpired:
                    errors.append(f"node {pid}: timed out after {timeout}s")
                    continue
                line = next(
                    (ln for ln in reversed(out.splitlines()) if ln.strip()),
                    "",
                )
                try:
                    records[pid] = json.loads(line)
                except (ValueError, RecursionError):
                    tail = (err or out or "").strip().splitlines()
                    errors.append(
                        f"node {pid}: no decision line (exit "
                        f"{proc.returncode}): {tail[-1] if tail else '?'}"
                    )
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
            for proc in procs:
                if proc.poll() is None:
                    proc.wait()

        good = [r for r in records if r is not None]
        decided = [r for r in good if r.get("decided")]
        decisions = [
            np.atleast_1d(np.asarray(r["decision"], dtype=float))
            for r in decided
        ]
        spread = agreement_diameter(dict(enumerate(decisions)))
        tolerance = problem_for(
            spec.algorithm, spec.d, spec.f,
            k=spec.k, p=spec.p, epsilon=spec.epsilon,
        ).agreement_bound
        fleet_block = _fleet_block(trace_dir) if trace_dir else None
        ok = (
            not errors
            and len(decided) == n
            and all(r.get("completed") for r in good)
            and spread <= tolerance
            and (fleet_block is None or fleet_block.get("ok", False))
        )
        return {
            "schema": "repro.transport.launch-report/1",
            "instance": doc["instance"],
            "algorithm": spec.algorithm,
            "kind": kind,
            "n": n,
            "d": spec.d,
            "f": spec.f,
            "seed": spec.seed,
            "ok": bool(ok),
            "decided_nodes": len(decided),
            "agreement_spread": spread,
            "agreement_tolerance": tolerance,
            "errors": errors,
            "metrics_addresses": metrics_addresses,
            "fleet": fleet_block,
            "nodes": records,
            "topology": doc,
        }
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()


def _fleet_block(trace_dir: str) -> dict[str, Any]:
    """Stitch the collected trails and run the post-hoc probes.

    ``ok`` holds when the merged graph is complete (every remote deliver
    found its send) and no probe recorded a violation.  A stitching or
    probe failure is reported, never raised — the launch report must
    still be written so the cluster outcome stays inspectable.
    """
    from ..obs.fleet import (
        discover_trails,
        fleet_probes,
        load_trails,
        stitch,
    )

    try:
        trails = load_trails(discover_trails(trace_dir))
        graph, stitch_report = stitch(trails)
        reports, context = fleet_probes(trails, graph)
        probes_ok = all(report.ok for report in reports)
        return {
            "ok": bool(stitch_report.complete and probes_ok),
            "stitch": stitch_report.to_dict(),
            "probes": [report.to_dict() for report in reports],
            "probes_ok": probes_ok,
            "context": context,
        }
    except (OSError, ValueError) as exc:
        return {"ok": False, "error": str(exc)}
