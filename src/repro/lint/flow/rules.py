"""The three flow rule families: FLOW, QUO, XPT.

These rules follow values across files: ``check(module, program)``
reports findings in one module but reads the whole-program
:class:`~repro.lint.flow.model.ProgramModel`, which one lint pass builds
once and shares with every rule (as it does the message profiles cached
on it).  They are plain
:class:`~repro.lint.engine.Rule` subclasses in the one registry.

Families
--------
* **FLOW** — message exhaustiveness.  ``FLOW001``: a process class sends
  a message kind no handler branch of the class dispatches on (the
  message is silently dropped at every correct receiver).  ``FLOW002``:
  a handler dispatches on a kind the class never sends (dead protocol
  arm — usually a renamed tag).
* **QUO** — quorum provenance.  ``QUO002``: a ``*threshold``/``*quorum``
  binding whose value does not reach :mod:`repro.core.bounds` through
  the dataflow — having the right number is not enough, it must
  *provably come from* the audited bound.  (Resilience-shaped arithmetic
  written inline, ``3*f + 1`` ..., is RES001's in ``core/`` and
  ``system/`` alike.)
* **XPT** — transport readiness (the static gate for ROADMAP item 1).
  ``XPT001``: mutable module-global state reachable from a message
  handler (breaks one-OS-process-per-node).  ``XPT003``: protocol code
  imports a non-seam name from a transport module, or touches a
  transport object's private attribute.
"""

from __future__ import annotations

import ast
import functools
from typing import Callable, Iterator, Optional, TypeVar, cast

from ..engine import Finding, Rule, register
from ..rules.common import dotted_name
from ..rules.hygiene import HANDLER_METHODS
from .model import ClassInfo, ModuleInfo, ProgramModel, _import_anchor
from .msgflow import MessageProfile, class_profile
from .seams import (
    APPROVED_HANDLER_GLOBALS,
    SEAM_INTERNAL,
    SEAM_MODULES,
    TRANSPORT_SEAMS,
)

__all__: list[str] = []

_BOUNDS_PREFIX = "repro.core.bounds."


# --------------------------------------------------------------------- shared
_T = TypeVar("_T")


def _once(build: Callable[[ProgramModel], _T]) -> Callable[[ProgramModel], _T]:
    """``build(model)`` runs once per model — so once per lint pass, however
    many rules and modules ask."""

    @functools.wraps(build)
    def cached(model: ProgramModel) -> _T:
        if build not in model.derived:
            model.derived[build] = build(model)
        return cast(_T, model.derived[build])

    return cached


@_once
def _process_classes(model: ProgramModel) -> list[ClassInfo]:
    return list(model.process_classes())


@_once
def _profiles(model: ProgramModel) -> list[MessageProfile]:
    return [class_profile(model, cls) for cls in _process_classes(model)]


# ----------------------------------------------------------------------- FLOW
def _module_profiles(
    program: ProgramModel, module: ModuleInfo
) -> list[MessageProfile]:
    return [p for p in _profiles(program) if p.cls.module is module]


@register
class UnhandledMessageKind(Rule):
    id = "FLOW001"
    family = "message-flow"
    scopes = ("core/", "system/")
    summary = "message kind sent with no handler branch in the sending class"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        seen: set[tuple[int, str]] = set()
        for profile in _module_profiles(program, module):
            for site in profile.sends:
                if site.kind is None or site.kind in profile.handled:
                    continue
                if (site.lineno, site.kind) in seen:
                    continue
                seen.add((site.lineno, site.kind))
                yield self.finding(
                    module,
                    site,
                    f"kind '{site.kind}' sent in {profile.cls.name}."
                    f"{site.method} but no handler of {profile.cls.name} "
                    f"dispatches on it — the message is dropped at every "
                    f"correct receiver",
                )


@register
class DeadHandlerBranch(Rule):
    id = "FLOW002"
    family = "message-flow"
    scopes = ("core/", "system/")
    summary = "handler dispatches on a message kind the class never sends"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        seen: set[tuple[int, str]] = set()
        for profile in _module_profiles(program, module):
            if not profile.sends:
                continue  # receive-only classes dispatch on peers' kinds
            sent = {s.kind for s in profile.sends if s.kind is not None}
            if any(s.kind is None for s in profile.sends):
                continue  # an unresolved send could cover any kind
            for kind, test in profile.handled.items():
                if kind in sent or (test.lineno, kind) in seen:
                    continue
                seen.add((test.lineno, kind))
                yield self.finding(
                    module,
                    test,
                    f"handler branch for kind '{kind}' in {profile.cls.name} "
                    f"but the class never sends it — dead protocol arm "
                    f"(renamed tag?)",
                )


# ------------------------------------------------------------------------ QUO
def _derives_from_bounds(
    expr: ast.expr,
    module: ModuleInfo,
    model: ProgramModel,
    env: dict[str, ast.expr],
    depth: int = 0,
) -> bool:
    """True when the expression's dataflow reaches a core.bounds helper."""
    if depth > 3:
        return False
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = model.resolve(module, name)
            if resolved is None:
                continue
            if resolved.startswith(_BOUNDS_PREFIX):
                return True
            target = model.function(resolved)
            if target is not None:
                target_module, func = target
                for ret in ast.walk(func):
                    if isinstance(ret, ast.Return) and ret.value is not None:
                        if _derives_from_bounds(
                            ret.value, target_module, model, {}, depth + 1
                        ):
                            return True
        elif isinstance(node, ast.Name) and node.id in env:
            bound = env[node.id]
            if bound is not expr and _derives_from_bounds(
                bound, module, model, env, depth + 1
            ):
                return True
    return False


@register
class ThresholdProvenance(Rule):
    id = "QUO002"
    family = "quorum-provenance"
    scopes = ("core/", "system/")
    summary = "threshold/quorum binding does not reach core.bounds via dataflow"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        if module.logical_path == "core/bounds.py":
            return
        for func, env in _functions_with_env(module):
            for node in ast.walk(func):
                target_name, value = _threshold_binding(node)
                if target_name is None or value is None:
                    continue
                if _derives_from_bounds(value, module, program, env):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"'{target_name}' is bound without provenance from "
                    f"repro.core.bounds; thresholds must reach a bounds "
                    f"helper through the dataflow, not re-derive the "
                    f"paper's arithmetic inline",
                )


def _threshold_binding(
    node: ast.AST,
) -> tuple[Optional[str], Optional[ast.expr]]:
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target, value = node.target, node.value
    else:
        return None, None
    if isinstance(target, ast.Attribute):
        name = target.attr
    elif isinstance(target, ast.Name):
        name = target.id
    else:
        return None, None
    low = name.lower()
    if "quorum" not in low and "threshold" not in low:
        return None, None
    # A bare rebind of an existing value has no arithmetic to audit.
    if isinstance(value, (ast.Name, ast.Constant, ast.Attribute)):
        return None, None
    return name, value


def _functions_with_env(
    module: ModuleInfo,
) -> Iterator[tuple[ast.FunctionDef, dict[str, ast.expr]]]:
    for node in module.nodes:
        if isinstance(node, ast.FunctionDef):
            env: dict[str, ast.expr] = {}
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    t = sub.targets[0]
                    if isinstance(t, ast.Name):
                        env[t.id] = sub.value
            yield node, env


# ------------------------------------------------------------------------ XPT
@register
class HandlerReachableGlobal(Rule):
    id = "XPT001"
    family = "transport-readiness"
    scopes = ("core/", "system/")
    summary = "mutable module-global state reachable from a message handler"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        seen: set[tuple[int, str]] = set()
        for cls in _process_classes(program):
            if cls.module is not module:
                continue
            for func in _handler_reach(program, cls):
                for node in ast.walk(func):
                    if not isinstance(node, ast.Name):
                        continue
                    name = node.id
                    if name.startswith("__"):
                        continue
                    if name not in module.global_mutables:
                        continue
                    if (module.logical_path, name) in APPROVED_HANDLER_GLOBALS:
                        continue
                    if (node.lineno, name) in seen:
                        continue
                    seen.add((node.lineno, name))
                    yield self.finding(
                        module,
                        node,
                        f"handler-reachable code touches mutable module "
                        f"global '{name}' (bound at line "
                        f"{module.global_mutables[name]}); per-node state "
                        f"must live on the process instance or be approved "
                        f"in lint.flow.seams.APPROVED_HANDLER_GLOBALS",
                    )


def _handler_reach(
    model: ProgramModel, cls: ClassInfo
) -> Iterator[ast.FunctionDef]:
    """Handler methods + same-class self-calls + same-module helper calls."""
    table = model.merged_methods(cls)
    module = cls.module
    reached: dict[str, ast.FunctionDef] = {}
    frontier = [m for m in HANDLER_METHODS if m in table]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        node = table[name][1] if name in table else module.functions[name]
        reached[name] = node
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in table
                and func.attr not in reached
            ):
                frontier.append(func.attr)
            elif (
                isinstance(func, ast.Name)
                and func.id in module.functions
                and func.id not in reached
            ):
                frontier.append(func.id)
    yield from reached.values()


@_once
def _seam_private_attrs(model: ProgramModel) -> frozenset[str]:
    """Private attribute names assigned on self inside seam-module classes."""
    attrs: set[str] = set()
    for dotted in SEAM_MODULES:
        info = model.modules.get(dotted)
        if info is None:
            continue
        for cls in info.classes.values():
            for method in cls.methods.values():
                for node in ast.walk(method):
                    targets: list[ast.expr] = []
                    if isinstance(node, ast.Assign):
                        targets = list(node.targets)
                    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                        targets = [node.target]
                    for t in targets:
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                            and t.attr.startswith("_")
                            and not t.attr.startswith("__")
                        ):
                            attrs.add(t.attr)
    return frozenset(attrs)


@register
class SeamDiscipline(Rule):
    id = "XPT003"
    family = "transport-readiness"
    scopes = ("core/", "system/broadcast/")
    summary = "transport module used outside the approved seam list"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        private_attrs = _seam_private_attrs(program)
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import(module, node)
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in private_attrs
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
            ):
                yield self.finding(
                    module,
                    node,
                    f"access to transport-private attribute "
                    f"'{node.attr}'; protocol code may touch the "
                    f"transport only through the approved seams "
                    f"(lint.flow.seams.TRANSPORT_SEAMS)",
                )

    def _check_import(
        self, module: ModuleInfo, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        if module.logical_path in SEAM_INTERNAL:
            # Facades are the seam: they import the implementations they
            # front.  (Their private attrs are still checked above.)
            return
        anchor = (
            _import_anchor(module.name, module.is_package, node.level)
            if node.level
            else []
        )
        base = ".".join([*anchor, *(node.module.split(".") if node.module else [])])
        logical = SEAM_MODULES.get(base)
        if logical is None:
            return
        allowed = TRANSPORT_SEAMS[logical]
        for alias in node.names:
            if alias.name == "*" or alias.name in allowed:
                continue
            yield self.finding(
                module,
                node,
                f"import of '{alias.name}' from {logical} is outside the "
                f"approved transport seam list; the seam inventory "
                f"(lint.flow.seams.TRANSPORT_SEAMS) is the interface the "
                f"live-transport refactor preserves",
            )
