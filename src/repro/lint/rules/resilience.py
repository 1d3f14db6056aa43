"""RES — resilience bounds come from ``repro.core.bounds``, nowhere else.

Every algorithm module in ``core/`` gates on a process-count predicate
of the Xiang–Vaidya shape — ``n >= 3f + 1``, ``n >= (d+1)f + 1``,
``n >= (d+2)f + 1`` — and every broadcast primitive in ``system/`` on a
quorum of the same shape (Bracha's ``2f + 1`` READY quorum).  The whole
point of :mod:`repro.core.bounds` is that those predicates exist in
exactly one place, checked against the paper's theorems by the test
suite.  An inline ``(d + 1) * f + 1`` in an algorithm or broadcast file
is a second copy that can silently drift from the canonical one (and
from the paper).

Rule
----
* ``RES001`` — arithmetic of the shape ``c*f``, ``c*f + 1``,
  ``(d + c)*f`` or ``(d + c)*f + 1`` (``c`` an integer literal, ``f``/
  ``d`` the conventional parameter names) anywhere in ``core/`` or
  ``system/`` outside ``core/bounds.py`` — including inside f-strings,
  where re-derived bounds hide in error messages.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Rule, register
from ..flow.model import ModuleInfo, ProgramModel
from .common import is_int_const

__all__ = ["InlineResilienceBound"]

_F_NAMES = frozenset({"f", "f_", "nfaulty", "n_faulty"})
_D_NAMES = frozenset({"d", "dim", "dimension"})


def _names(node: ast.AST, names: frozenset[str]) -> bool:
    """Name ``f`` / attribute ``self.f`` style reference check."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in names
    return False


def _is_f(node: ast.AST) -> bool:
    return _names(node, _F_NAMES)


def _is_d_shift(node: ast.AST) -> bool:
    """``d`` or ``(d + c)`` / ``(d - c)`` with an integer literal."""
    if _names(node, _D_NAMES):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        pair = (node.left, node.right)
        return any(_names(p, _D_NAMES) for p in pair) and any(
            is_int_const(p) for p in pair
        )
    return False


def _is_bound_mult(node: ast.AST) -> bool:
    """``c * f`` (c >= 2) or ``(d ± c) * f`` / ``d * f``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for a, b in ((node.left, node.right), (node.right, node.left)):
        if _is_f(b):
            if is_int_const(a) and a.value >= 2:  # type: ignore[attr-defined]
                return True
            if _is_d_shift(a):
                return True
    return False


@register
class InlineResilienceBound(Rule):
    id = "RES001"
    family = "resilience-bounds"
    scopes = ("core/", "system/")
    summary = "resilience bound re-derived inline instead of via core.bounds"

    _MESSAGE = (
        "resilience arithmetic re-derived inline; express it via "
        "repro.core.bounds (exact_bvc_min_n, tverberg_min_n, trim_min_size, "
        "... for the algorithms; rbc_min_n, bracha_ready_quorum, ... for the "
        "broadcast layer) so every module shares one predicate"
    )

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        if module.logical_path == "core/bounds.py":
            return
        reported: set[int] = set()
        for node in module.nodes:
            # `c*f + 1` / `(d+c)*f + 1`: flag the Add, suppress the inner Mult.
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                for a, b in ((node.left, node.right), (node.right, node.left)):
                    if _is_bound_mult(a) and is_int_const(b):
                        if id(node) not in reported:
                            reported.add(id(node))
                            reported.add(id(a))
                            yield self.finding(module, node, self._MESSAGE)
                        break
        for node in module.nodes:
            if (
                _is_bound_mult(node)
                and id(node) not in reported
            ):
                reported.add(id(node))
                yield self.finding(module, node, self._MESSAGE)
