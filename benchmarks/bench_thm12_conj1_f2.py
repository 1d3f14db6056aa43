"""Experiment E-THM12/C1 — f >= 2 bounds and Lemma 16 monotonicity.

Paper claims:

* Theorem 12 (f >= 2, n = (d+1)f): δ* < max-edge/(d-1), covering both
  proof cases (all faults inside one Tverberg block F'_k, or spread out).
* Lemma 16: removing an input cannot decrease δ* — so the conjectured
  bounds for n < (d+1)f are consistent with the proven n = (d+1)f bound.
* Conjecture 1: δ* < max-edge/(⌊n/f⌋-2) for 3f+1 <= n < (d+1)f.

Measured: bound compliance and the Lemma 16 chain δ*(S_n) <= δ*(S_{n-1})
<= ... along nested input sets.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.workloads import make_workload
from repro.core.bounds import conjecture1_bound, theorem12_bound
from repro.geometry.minimax import delta_star

from ._util import report, rng_for

TRIALS = 4


class TestTheorem12:
    def test_bound_with_clustered_faults(self):
        """Both fault placements from the proof: faults concentrated
        (inside the honest cloud) and faults spread (wild outliers)."""
        rows = []
        for d in (3, 4):
            n = (d + 1) * 2
            for placement in ("inside", "outliers"):
                ok_all = True
                worst_util = 0.0
                for i in range(TRIALS):
                    rng = rng_for(f"thm12-{d}-{placement}", i)
                    honest = make_workload("gaussian", rng, n - 2, d)
                    if placement == "inside":
                        faulty = honest.mean(axis=0) + rng.normal(size=(2, d)) * 0.1
                    else:
                        faulty = honest.mean(axis=0) + rng.normal(size=(2, d)) * 40.0
                    S = np.vstack([honest, faulty])
                    val = delta_star(S, 2).value
                    bound = theorem12_bound(honest, d)
                    worst_util = max(worst_util, val / bound)
                    ok_all &= val < bound + 1e-7
                rows.append([d, 2, n, placement, worst_util,
                             "OK" if ok_all else "VIOLATION"])
                assert ok_all, f"d={d}, placement={placement}"
        report(
            "Theorem 12 (f=2, n=(d+1)f): delta* vs max-edge/(d-1)",
            ["d", "f", "n", "fault placement", "max delta*/bound", "verdict"],
            rows,
        )


class TestLemma16:
    def test_removal_monotonicity(self):
        """δ*(S) <= δ*(S - {a}) for every removed input a."""
        rows = []
        for d, n, f in [(4, 8, 2), (3, 6, 1)]:
            ok_all = True
            for i in range(TRIALS):
                rng = rng_for(f"lem16-{d}-{n}", i)
                S = make_workload("gaussian", rng, n, d)
                base = delta_star(S, f).value
                for drop in range(n):
                    smaller = np.delete(S, drop, axis=0)
                    if smaller.shape[0] <= 3 * f:
                        continue
                    val = delta_star(smaller, f).value
                    ok_all &= base <= val + 1e-6
            rows.append([d, n, f, TRIALS, "OK" if ok_all else "VIOLATION"])
            assert ok_all, f"Lemma 16 violated at d={d}, n={n}"
        report(
            "Lemma 16: delta*(S) <= delta*(S - {a}) (removal monotonicity)",
            ["d", "n", "f", "trials", "verdict"],
            rows,
        )


class TestConjecture1:
    def test_conjectured_bound_holds(self):
        """No counterexample to Conjecture 1 across the sweep (a violation
        here would be a publishable observation, hence the hard assert)."""
        rows = []
        for d, n in [(4, 7), (4, 9), (5, 8), (5, 11)]:
            f = 2
            ok_all = True
            worst_util = 0.0
            for i in range(TRIALS):
                rng = rng_for(f"conj1-{d}-{n}", i)
                honest = make_workload("gaussian", rng, n - f, d)
                faulty = honest.mean(axis=0) + rng.normal(size=(f, d)) * 30.0
                S = np.vstack([honest, faulty])
                val = delta_star(S, f).value
                bound = conjecture1_bound(honest, n, f)
                worst_util = max(worst_util, val / bound if bound else 0.0)
                ok_all &= val < bound + 1e-7
            rows.append([d, f, n, worst_util, "OK" if ok_all else "VIOLATION"])
            assert ok_all, f"Conjecture 1 counterexample at d={d}, n={n}?!"
        report(
            "Conjecture 1 (f=2, 3f+1 <= n < (d+1)f): delta* vs max-edge/(⌊n/f⌋-2)",
            ["d", "f", "n", "max delta*/bound", "verdict"],
            rows,
        )
