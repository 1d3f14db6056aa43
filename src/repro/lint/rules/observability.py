"""OBS — telemetry naming discipline.

Every counter, gauge, histogram, span, and trace event in the shipped
tree shares one grep-able namespace: dotted lowercase
``<layer>.<component>.<what>`` (``bcast.bracha.echo``,
``sched.async.steps``, ``geometry.delta_star.seconds``).  Dashboards,
the sweep roll-up (:func:`repro.exec.engine._rollup_metrics`), and the
probe counters all key on that shape, so a stray ``CamelCase`` or
single-word name silently falls out of every aggregation.  These rules
fence the shape at lint time, where a typo is a one-line diff instead of
a missing panel.

Rules
-----
* ``OBS001`` — literal metric/span/event names must be dotted lowercase
  with at least two segments, and duration/size histograms
  (``observe``/``histogram``) must end in a unit suffix (``.seconds``,
  ``.bytes``, or ``_us`` for microsecond latencies such as
  ``net.live.queue_wait_us``) so the roll-up's ``<name>.total`` stays
  unambiguous.  Span names need no unit suffix: the profiler sink's
  histograms are rendered under an explicit ``_seconds`` family name by
  :mod:`repro.obs.prom`.

F-string names (``f"probe.{self.name}.violations"``) are skipped: the
rule checks only what it can read statically.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..engine import Finding, Rule, register
from ..flow.model import ModuleInfo, ProgramModel

__all__ = ["MetricNameShape"]

_SCOPES = (
    "core/", "system/", "dst/", "exec/", "geometry/", "obs/",
    "analysis/", "lint/", "benchmarks/", "examples/",
)

#: Call targets whose first positional argument is a telemetry name.
_NAMED_CALLS = frozenset(
    {
        "inc", "observe", "set_gauge", "counter", "gauge", "histogram",
        "span", "event", "trace_span", "trace_event",
    }
)

#: Calls recording a measured quantity: the name must carry its unit.
_UNIT_CALLS = frozenset({"observe", "histogram"})

_UNIT_SUFFIXES = (".seconds", ".bytes", "_us")

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def _called_method(node: ast.Call) -> Optional[str]:
    """Final identifier of the call target: ``m`` for both ``m(...)``
    and ``obj.m(...)``, else None."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@register
class MetricNameShape(Rule):
    id = "OBS001"
    family = "observability"
    scopes = _SCOPES
    summary = "telemetry name outside the dotted-lowercase namespace"

    def check(self, module: ModuleInfo, program: ProgramModel) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            method = _called_method(node)
            if method not in _NAMED_CALLS or not node.args:
                continue
            arg = node.args[0]
            # f-strings and computed names are out of static reach.
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                continue
            name = arg.value
            if not _NAME_RE.match(name):
                yield self.finding(
                    module, arg,
                    f"telemetry name {name!r} must be dotted lowercase "
                    "`<layer>.<component>.<what>` (>=2 segments, "
                    "[a-z0-9_] per segment)",
                )
            elif method in _UNIT_CALLS and not name.endswith(_UNIT_SUFFIXES):
                yield self.finding(
                    module, arg,
                    f"histogram name {name!r} must end in a unit suffix "
                    f"({', '.join(_UNIT_SUFFIXES)}) so rolled-up totals "
                    "stay unambiguous",
                )
