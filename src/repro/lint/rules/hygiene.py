"""HYG — message-handler hygiene in the simulated transport stack.

Handlers run once per delivery, interleaved adversarially by the
scheduler.  Two classes of bug survive unit tests but corrupt
simulations:

* **module-level state** — a handler writing through a module-level
  name leaks information between processes that the model says are
  isolated, and between DST trials that the replay corpus says are
  independent;
* **retained in-flight payloads** — a handler that both *stores* a raw
  payload reference (quorum bookkeeping, EIG trees, …) and *forwards*
  the same reference shares one mutable object between its own state
  and another process's inbox; a downstream mutation (a Byzantine
  wrapper, a NumPy in-place op) silently rewrites history.  Store a
  defensive copy (:func:`repro.system.messages.defensive_copy`) and
  forward the original.

Rules
-----
* ``HYG001`` — handler mutates module-level state (``global`` binding,
  or assignment/subscript-store through a module-level name).
* ``HYG002`` — handler stores *and* forwards the same raw payload
  reference.  Wrapping either side in a call (a copy/constructor)
  sanitises it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..engine import Finding, Rule, register
from ..flow.model import ModuleInfo, ProgramModel
from .common import root_name

__all__ = ["ModuleStateMutation", "RetainAndForward", "HANDLER_METHODS"]

#: Method names treated as delivery/round handlers in the system layer.
HANDLER_METHODS = frozenset(
    {
        "on_start",
        "on_message",
        "on_round",
        "on_stop",
        "receive",
        "start",
        "messages_for_round",
    }
)

_SCOPES = ("system/process.py", "system/broadcast/")

#: Parameter names carrying a raw in-flight payload.
_PAYLOAD_PARAMS = frozenset({"payload", "message", "msg"})

#: Mutating container methods whose arguments count as "stored".
_STORE_METHODS = frozenset({"append", "add", "insert", "setdefault", "update", "extend"})

#: Call attributes that hand a value to the transport.
_FORWARD_METHODS = frozenset({"send", "broadcast", "atomic_broadcast"})


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
    return names


def _handler_methods(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name in HANDLER_METHODS
                ):
                    yield item


@register
class ModuleStateMutation(Rule):
    id = "HYG001"
    family = "handler-hygiene"
    scopes = _SCOPES
    summary = "message handler mutates module-level state"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        module_names = _module_level_names(module.tree)
        for handler in _handler_methods(module.tree):
            declared_global: set[str] = set()
            for node in ast.walk(handler):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
                    yield self.finding(
                        module, node,
                        f"handler {handler.name}() binds module-level "
                        f"name(s) {', '.join(node.names)} via `global`; "
                        "per-process state belongs on the instance",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for t in targets:
                        if isinstance(t, (ast.Attribute, ast.Subscript)):
                            root = root_name(t)
                            if root is not None and root in module_names:
                                yield self.finding(
                                    module, t,
                                    f"handler {handler.name}() writes through "
                                    f"module-level name `{root}`; handlers "
                                    "must only mutate instance state",
                                )


def _assigned_names(target: ast.AST) -> Iterator[ast.Name]:
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _assigned_names(target.value)


def _contains_tainted(node: ast.AST, tainted: set[str]) -> Optional[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return sub.id
    return None


@register
class RetainAndForward(Rule):
    id = "HYG002"
    family = "handler-hygiene"
    scopes = _SCOPES
    summary = "handler stores and forwards the same in-flight payload"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        for handler in _handler_methods(module.tree):
            tainted = self._tainted_names(handler)
            if not tainted:
                continue
            stores: dict[str, ast.AST] = {}
            for name, node in self._stored(handler, tainted):
                stores.setdefault(name, node)
            forwards = {name for name, _ in self._forwarded(handler, tainted)}
            for name in sorted(set(stores) & forwards):
                yield self.finding(
                    module, stores[name],
                    f"handler {handler.name}() stores and forwards the same "
                    f"in-flight payload reference `{name}`; store a "
                    "defensive copy (repro.system.messages.defensive_copy) "
                    "and forward the original",
                )

    # ------------------------------------------------------------- analysis
    def _tainted_names(self, handler: ast.FunctionDef) -> set[str]:
        """Names bound (directly or by unpacking) to the raw payload."""
        args = handler.args
        tainted = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.arg in _PAYLOAD_PARAMS
        }
        if not tainted:
            return tainted
        # Two passes propagate through simple chains like
        # ``phase, value = payload`` then ``inner = value[0]``.
        for _ in range(2):
            for node in ast.walk(handler):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if isinstance(value, ast.Call):
                    # A constructor/copy call sanitises its result; it also
                    # *clears* taint on rebinding (``chain = tuple(chain)``).
                    for t in node.targets:
                        for nm in _assigned_names(t):
                            tainted.discard(nm.id)
                    continue
                if _contains_tainted(value, tainted):
                    for t in node.targets:
                        for nm in _assigned_names(t):
                            tainted.add(nm.id)
        return tainted

    def _stored(
        self, handler: ast.FunctionDef, tainted: set[str]
    ) -> Iterator[tuple[str, ast.AST]]:
        """(name, node) for raw tainted names retained on ``self``."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if (
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        and root_name(t) == "self"
                        and isinstance(node.value, ast.Name)
                        and node.value.id in tainted
                    ):
                        yield node.value.id, node
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _STORE_METHODS
                    and root_name(func.value) == "self"
                ):
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in tainted:
                            yield arg.id, node

    def _forwarded(
        self, handler: ast.FunctionDef, tainted: set[str]
    ) -> Iterator[tuple[str, ast.AST]]:
        """(name, node) for tainted names leaving through the transport.

        Counts ``return`` expressions, ``ctx.send(...)``-style transport
        calls, and appends/extends into local outbox collections (the
        broadcast state machines return those to the caller).
        """
        for node in ast.walk(handler):
            if isinstance(node, ast.Return) and node.value is not None:
                name = _contains_tainted(node.value, tainted)
                if name is not None:
                    yield name, node
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                is_transport = func.attr in _FORWARD_METHODS
                is_local_outbox = (
                    func.attr in ("append", "extend")
                    and isinstance(func.value, ast.Name)
                )
                if is_transport or is_local_outbox:
                    for arg in node.args:
                        name = _contains_tainted(arg, tainted)
                        if name is not None:
                            yield name, node
