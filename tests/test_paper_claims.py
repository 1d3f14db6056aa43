"""Tier-1's slice of the paper-claim suite (ROADMAP item 5).

``benchmarks/bench_*.py`` assert the paper's theorems; only CI's
``paper-claims`` job runs all 45 of them (~2.5 min).  The five files
collected here are the ones a change to the asynchronous receive path or
to the δ* solver can break, and fit tier-1 (13 tests, ~8 s):

* ``bench_rva_async`` — Thm 15 (arXiv:1601.08067 §10): ε-agreement,
  termination and (δ,p)-validity of Relaxed Verified Averaging at
  ``n = d + 1`` under random and starvation schedules and a silent fault;
* ``bench_thm4_krelaxed_async`` / ``bench_thm6_deltap_async`` — the
  asynchronous impossibility constructions;
* ``bench_table1`` — Table 1's bound utilisation stays below 1;
* ``bench_lemma13_inradius`` — δ* of a simplex is its inradius.

The classes are imported, not copied: a claim has one definition.  The
``benchmark`` fixture below switches pytest-benchmark's off for this
module, so the kernel each claim also times runs once, untimed — what
``--benchmark-disable`` does for the full suite.
"""

from __future__ import annotations

from typing import Any

import pytest

from benchmarks.bench_lemma13_inradius import TestLemma13
from benchmarks.bench_rva_async import TestRVA
from benchmarks.bench_table1 import TestTable1
from benchmarks.bench_thm4_krelaxed_async import TestTheorem4
from benchmarks.bench_thm6_deltap_async import TestTheorem6

__all__ = ["TestLemma13", "TestRVA", "TestTable1", "TestTheorem4", "TestTheorem6"]


@pytest.fixture
def benchmark(benchmark: Any) -> Any:
    benchmark.disabled = True
    return benchmark
