"""Exactly one handler door: only ``system.process.Node`` calls a
process handler or the adversary hook.

The simulators, the live node and the Lemma 10 ring are drivers: they
pick the next event and route what a handler queued, but the call itself
— ``on_start``, ``on_round``, the 4-argument process ``on_message(ctx,
src, tag, payload)`` and ``Adversary.transform_outbox`` — happens in
``Node`` alone.  ``BrachaState.on_message(src, payload)`` is a broadcast
machine, not a process handler, and does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
DOOR = ("system/process.py", "Node")
GUARDED = {"on_start", "on_round", "transform_outbox"}


def _door_calls(tree: ast.AST):
    """``(enclosing class or None, method name, line)`` per guarded call."""

    def walk(node: ast.AST, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                name = child.func.attr
                if name in GUARDED or (name == "on_message" and len(child.args) == 4):
                    yield cls, name, child.lineno
            yield from walk(child, cls)

    yield from walk(tree, None)


def _all_calls():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for cls, name, line in _door_calls(ast.parse(path.read_text())):
            yield rel, cls, name, line


def test_only_node_calls_handlers_and_the_adversary_hook():
    strays = [
        f"{rel}:{line} ({cls}) calls .{name}("
        for rel, cls, name, line in _all_calls()
        if (rel, cls) != DOOR
    ]
    assert strays == []


def test_node_is_the_door_for_every_guarded_call():
    inside = {name for rel, cls, name, _ in _all_calls() if (rel, cls) == DOOR}
    assert inside == GUARDED | {"on_message"}

