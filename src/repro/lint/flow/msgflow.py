"""Message-flow graph: send sites linked to handler dispatch by kind.

Every message in the simulated stack leaves through one of three
``Context`` methods — ``send(dst, tag, payload)``, ``broadcast(tag,
payload)``, ``atomic_broadcast(tag, payload)`` — and arrives at a handler
(``on_message`` / ``on_round``) that dispatches on the tag.  Tags are
structured ``kind[:instance...]`` strings (``"rva:3:1"``, ``"bc:0"``,
``"iter"``); the *kind* is the protocol-level routing key.

This module recovers, per process class:

* **send kinds** — the tag argument of every transport call in any
  method, resolved through f-string prefixes, local assignments, and tag
  helper functions (``rb_tag``, ``broadcast_tag``) via the program model;
* **handled kinds** — string literals the tag value is dispatched on
  (``==``/``!=`` comparisons, ``.startswith("bc:")``, and ``split(":")``
  prefix tests) inside the handler closure — handler methods plus every
  same-class method they transitively call.

Tag-derivation is tracked so payload-level literals (``"refs"``,
``"init"``) never masquerade as handled network kinds: only expressions
rooted at the handler's ``tag`` parameter, at 2-tuple inbox loop
targets, or at ``tag.split(...)`` results count as dispatch tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from ..rules.common import dotted_name
from .model import ClassInfo, ModuleInfo, ProgramModel

__all__ = ["MessageProfile", "SendSite", "class_profile", "HANDLER_ENTRYPOINTS"]

#: Methods where deliveries enter a process.
HANDLER_ENTRYPOINTS = frozenset({"on_message", "on_round"})

#: Transport methods and the positional index of their tag argument.
_TRANSPORT_TAG_ARG = {"send": 1, "broadcast": 0, "atomic_broadcast": 0}


@dataclass(frozen=True)
class SendSite:
    """One transport call: resolved kind (None when out of static reach)."""

    kind: Optional[str]
    method: str
    lineno: int
    col_offset: int


@dataclass
class MessageProfile:
    """Sent/handled message kinds of one process class."""

    cls: ClassInfo
    sends: list[SendSite] = field(default_factory=list)
    #: kind -> the first dispatch test for it
    handled: dict[str, ast.expr] = field(default_factory=dict)


def _kind_of(text: str) -> str:
    return text.split(":", 1)[0]


def _local_assignments(func: ast.FunctionDef) -> dict[str, ast.expr]:
    """Last simple ``name = expr`` binding per local name."""
    env: dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                env[target.id] = node.value
    return env


def resolve_tag_kind(
    expr: ast.expr,
    env: dict[str, ast.expr],
    module: ModuleInfo,
    model: ProgramModel,
    depth: int = 0,
) -> Optional[str]:
    """Best-effort message kind of a tag expression, else None."""
    if depth > 4:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return _kind_of(expr.value)
    if isinstance(expr, ast.JoinedStr):
        if expr.values and isinstance(expr.values[0], ast.Constant):
            head = str(expr.values[0].value)
            if ":" in head:
                return _kind_of(head)
            if len(expr.values) == 1:
                return head
        return None
    if isinstance(expr, ast.Name):
        bound = env.get(expr.id)
        if bound is not None and bound is not expr:
            return resolve_tag_kind(bound, env, module, model, depth + 1)
        return None
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name is None:
            return None
        resolved = model.resolve(module, name)
        target = model.function(resolved) if resolved else None
        if target is None:
            return None
        target_module, func = target
        func_env = _local_assignments(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and node.value is not None:
                kind = resolve_tag_kind(
                    node.value, func_env, target_module, model, depth + 1
                )
                if kind is not None:
                    return kind
        return None
    return None


def handler_closure(
    model: ProgramModel, cls: ClassInfo, entrypoints: frozenset[str] = HANDLER_ENTRYPOINTS
) -> dict[str, ast.FunctionDef]:
    """Handler methods plus every same-class method they reach via self."""
    table = model.merged_methods(cls)
    reached: dict[str, ast.FunctionDef] = {}
    frontier = [name for name in entrypoints if name in table]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached[name] = table[name][1]
        for node in ast.walk(table[name][1]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if isinstance(recv, ast.Name) and recv.id == "self":
                    callee = node.func.attr
                    if callee in table and callee not in reached:
                        frontier.append(callee)
    return reached


def _tag_derived_names(func: ast.FunctionDef) -> set[str]:
    """Names carrying the delivery tag inside one handler-closure method."""
    names: set[str] = set()
    for arg in (*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs):
        if arg.arg == "tag":
            names.add(arg.arg)
    for node in ast.walk(func):
        # ``for tag, payload in entries:`` — inbox entries are (tag, payload).
        if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple):
            elts = node.target.elts
            if len(elts) == 2 and isinstance(elts[0], ast.Name):
                names.add(elts[0].id)
    # ``parts = tag.split(":")`` — the split result carries the tag.
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name) or target.id in names:
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in ("split", "partition", "rpartition")
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id in names
            ):
                names.add(target.id)
                changed = True
    return names


def _is_tag_expr(node: ast.AST, tag_names: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in tag_names
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and node.value.id in tag_names
    return False


def _handled_kinds(func: ast.FunctionDef) -> dict[str, ast.expr]:
    tag_names = _tag_derived_names(func)
    if not tag_names:
        return {}
    handled: dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                continue
            left, right = node.left, node.comparators[0]
            for expr, lit in ((left, right), (right, left)):
                if (
                    _is_tag_expr(expr, tag_names)
                    and isinstance(lit, ast.Constant)
                    and isinstance(lit.value, str)
                ):
                    handled.setdefault(_kind_of(lit.value), node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
            and _is_tag_expr(node.func.value, tag_names)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            handled.setdefault(_kind_of(node.args[0].value), node)
    return handled


def class_profile(model: ProgramModel, cls: ClassInfo) -> MessageProfile:
    """Send sites and handled kinds for one process class (bases merged)."""
    profile = MessageProfile(cls=cls)
    for name, (owner, func) in sorted(model.merged_methods(cls).items()):
        env = _local_assignments(func)
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            tag_index = _TRANSPORT_TAG_ARG.get(node.func.attr)
            if tag_index is None or len(node.args) <= tag_index:
                continue
            kind = resolve_tag_kind(node.args[tag_index], env, owner.module, model)
            profile.sends.append(
                SendSite(kind, name, node.lineno, node.col_offset)
            )
    for name, func in sorted(handler_closure(model, cls).items()):
        for kind, test in _handled_kinds(func).items():
            profile.handled.setdefault(kind, test)
    return profile
