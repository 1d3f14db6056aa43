"""Protocol-aware static analysis for the reproduction (``repro.lint``).

The paper's guarantees are only as good as the invariants every module
encodes: the resilience predicates (``n >= max((d+1)f+1, 3f+1)`` and
friends) must come from one place (:mod:`repro.core.bounds`), the
simulator must stay bit-for-bit deterministic so the DST replay corpus
keeps reproducing, and geometric code must never compare floats with
bare ``==``.  This package checks those properties *statically*, before
the fuzzer has to find the drift dynamically.

Rule families (see ``docs/static_analysis.md``):

=========  ================================================================
family     what it protects
=========  ================================================================
``DET``    replay determinism of ``core/``, ``system/``, ``dst/`` (and the
           seeded-trajectory property of ``benchmarks/``/``examples/``);
           no timer at all in ``core/``/``system/``
``FLT``    float comparisons in ``geometry/``/``core/`` go through the
           tolerance helpers in :mod:`repro.geometry.tolerance`
``RES``    resilience bounds in ``core/`` and ``system/`` are expressed
           via :mod:`repro.core.bounds` predicates, never re-derived inline
``HYG``    message handlers neither mutate module state nor retain
           references to in-flight payloads they also forward
``FLOW``   every message kind sent has a handler branch, no dead handlers
           (whole-program, like QUO/XPT: :mod:`repro.lint.flow`)
``QUO``    thresholds/quorums reach :mod:`repro.core.bounds` via dataflow
``XPT``    transport readiness: no handler-reachable module globals,
           transport touched only via the approved seams
=========  ================================================================

Findings are suppressible per line with ``# repro: noqa[RULE]`` (or a
blanket ``# repro: noqa``); fixture/test files can opt into a scope with
a file-level ``# repro: lint-as <path>`` directive.

One pass parses every file once, builds the whole-program model once,
and runs every rule once; suppression and ``--check-noqa`` filter that
one list of findings.

Entry points: ``python -m repro lint [paths...]``,
:func:`repro.lint.lint_paths` (files and directories) or
:func:`repro.lint.lint_sources` (``(path, source)`` pairs).
"""

from __future__ import annotations

from .engine import (
    Finding,
    Rule,
    all_rules,
    lint_paths,
    lint_sources,
    register,
)

# Importing the rule modules registers every shipped rule.
from .rules import determinism, floats, hygiene, observability, resilience  # noqa: F401
from .flow import rules as _flow_rules  # noqa: F401

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_sources",
    "register",
]
