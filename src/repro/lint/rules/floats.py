"""FLT — float comparisons in the geometric/protocol layers.

The LP/cutting-plane machinery hands back values that are *close to*
special values (0, the canonical norm orders, certified optima), never
guaranteed to be bitwise equal.  A bare ``delta == 0.0`` silently
changes which branch an algorithm takes for ``delta = 1e-17`` — exactly
the class of invariant drift the DST fuzzer had to catch dynamically in
PR 2.  All float comparisons in ``geometry/`` and ``core/`` must go
through :mod:`repro.geometry.tolerance`:

* ``near_zero(x)`` / ``close(a, b)`` — tolerance-aware comparison;
* ``norm_order_is(p, value)`` — exact dispatch on a *canonicalised* norm
  order (the one sanctioned exact comparison, for values produced by
  ``validate_p``);
* ``exactly_zero(x)`` — documented exact-zero guard (division-by-zero
  protection where a tolerance would change numerics).

Rule
----
* ``FLT001`` — ``==`` / ``!=`` with a float literal on either side.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Rule, register
from ..flow.model import ModuleInfo, ProgramModel

__all__ = ["FloatEquality"]


def _is_float_const(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEquality(Rule):
    id = "FLT001"
    family = "float-safety"
    scopes = ("geometry/", "core/")
    summary = "bare ==/!= against a float literal"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_float_const(left) or _is_float_const(right):
                    yield self.finding(
                        module, node,
                        "bare float equality; use repro.geometry.tolerance "
                        "(near_zero/close for computed values, norm_order_is "
                        "for canonical norm orders, exactly_zero for "
                        "division guards)",
                    )
                    break  # one finding per comparison chain
