"""Experiment E-THM14/C3 — L_p transfer of the δ bounds.

Paper claims:

* δ*_p <= δ*_2 for p >= 2 (norm monotonicity, the first step of Thm 14);
* Theorem 14: δ*_p < d^(1/2 - 1/p) · κ(n,f,d,2) · max-edge_p;
* Conjecture 3: the same with κ = 1/(⌊n/f⌋-2) in the conjectured regime.

Measured: δ* under p ∈ {2, 3, 4, ∞} against the transferred bounds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.workloads import make_workload
from repro.core.bounds import kappa, theorem14_bound
from repro.geometry.minimax import delta_star

from ._util import report, rng_for

TRIALS = 4
PS = [2, 3, 4, math.inf]


class TestTheorem14:
    def test_monotone_in_p(self):
        rows = []
        for d in (3, 4):
            ok_all = True
            for i in range(TRIALS):
                rng = rng_for(f"thm14-mono-{d}", i)
                S = make_workload("gaussian", rng, d + 1, d)
                vals = [delta_star(S, 1, p=p).value for p in PS]
                for a, b in zip(vals, vals[1:]):
                    ok_all &= b <= a + 1e-6
                if i == 0:
                    rows.append([d] + [f"{v:.4f}" for v in vals]
                                + ["OK" if ok_all else "VIOLATION"])
            assert ok_all, f"delta*_p not monotone at d={d}"
        report(
            "Theorem 14 step 1: delta*_p non-increasing in p (sample trial shown)",
            ["d", "p=2", "p=3", "p=4", "p=inf", "verdict"],
            rows,
        )

    def test_transferred_bound(self):
        """δ*_p vs d^(1/2-1/p)·κ2·max-edge_p with wild faulty inputs."""
        rows = []
        for d in (3, 4):
            n, f = d + 1, 1
            kappa2 = kappa(n, f, d, 2)
            for p in PS:
                ok_all = True
                worst_util = 0.0
                for i in range(TRIALS):
                    rng = rng_for(f"thm14-bound-{d}-{p}", i)
                    honest = make_workload("gaussian", rng, n - 1, d)
                    S = np.vstack(
                        [honest, honest.mean(axis=0, keepdims=True) + 30.0]
                    )
                    val = delta_star(S, f, p=p).value
                    bound = theorem14_bound(honest, n, f, d, p, kappa2)
                    worst_util = max(worst_util, val / bound)
                    ok_all &= val < bound + 1e-6
                rows.append([d, n, str(p), worst_util,
                             "OK" if ok_all else "VIOLATION"])
                assert ok_all, f"Theorem 14 bound violated at d={d}, p={p}"
        report(
            "Theorem 14: delta*_p vs d^(1/2-1/p)·kappa2·max-edge_p",
            ["d", "n", "p", "max delta*/bound", "verdict"],
            rows,
        )
