"""The ways a ``repro.transport.topology/1`` document can be wrong.

Shared by ``test_topology_files.py`` and by CI's ``live-smoke`` job,
which hands every entry to ``repro node`` as a real subprocess (so this
module imports nothing the job does not install — no pytest).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.runspec import RunSpec
from repro.exec.live_launch import build_topology
from repro.system.transport.live import NodeAddress

SPEC = RunSpec(algorithm="averaging", n=4, d=2, f=1, seed=2016, epsilon=5e-2)


def pinned_nodes(n: int = 4) -> list[NodeAddress]:
    return [
        NodeAddress(pid, "uds", path=f"/tmp/pinned/n{pid}.sock")
        for pid in range(n)
    ]


def good_document() -> dict[str, Any]:
    return build_topology(SPEC, pinned_nodes(), kind="uds")


def _without(key: str) -> Callable[[dict], dict]:
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(**changes: Any) -> Callable[[dict], dict]:
    return lambda doc: {**doc, **changes}


def _nodes(edit: Callable[[list], Any]) -> Callable[[dict], dict]:
    return lambda doc: {**doc, "nodes": edit([dict(e) for e in doc["nodes"]])}


#: name -> edit turning the good document into one ``load_topology`` must
#: refuse with ``ValueError``.
MALFORMED: dict[str, Callable[[dict], Any]] = {
    "missing-knob": _without("seed"),
    "missing-nodes": _without("nodes"),
    "missing-instance": _without("instance"),
    "n-null": _with(n=None),
    "n-string": _with(n="4"),
    "n-bool": _with(n=True),
    "epsilon-string": _with(epsilon="0.05"),
    "algorithm-number": _with(algorithm=7),
    "rounds-float": _with(rounds=7.5),
    "unknown-knob": _with(adversary="silent"),
    "unknown-algorithm": _with(algorithm="paxos"),
    "unknown-kind": _with(kind="smoke-signals"),
    "instance-number": _with(instance=3),
    "n-below-the-floor": _with(n=3),
    "negative-epsilon": _with(epsilon=-1.0),
    "unresolved-rounds": _with(rounds=None),
    "nodes-not-a-list": _with(nodes={"0": "n0.sock"}),
    "node-without-id": _nodes(lambda ns: [_without("id")(ns[0])] + ns[1:]),
    "node-id-string": _nodes(lambda ns: [{**ns[0], "id": "0"}] + ns[1:]),
    "node-not-a-dict": _nodes(lambda ns: ["n0.sock"] + ns[1:]),
    "node-unknown-field": _nodes(lambda ns: [{**ns[0], "tls": True}] + ns[1:]),
    "node-missing": _nodes(lambda ns: ns[:-1]),
    "node-ids-repeat": _nodes(lambda ns: ns[:-1] + [ns[0]]),
    "not-an-object": lambda doc: [doc],
    "wrong-schema": _with(schema="repro.transport.topology/0"),
}
