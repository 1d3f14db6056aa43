"""Experiment E-THM9 — Theorem 9 (+ Theorem 8) in full, f = 1, n <= d+1.

Paper claims (f = 1, 4 <= n <= d+1):

* Theorem 8: affinely dependent inputs ⇒ δ* = 0 (achieved after an
  isometric reduction to the affine hull).
* Theorem 9: otherwise δ* < min-edge/2 **and** δ* < max-edge/(n-2), with
  edges over *all* inputs for the first bound and non-faulty inputs for
  both (we measure against the honest-edge versions, which the paper
  states for Table 1).
* Case II: the same bounds with n < d+1 inputs (projected simplex).

Measured: per-workload compliance, including the clustered workload that
separates the two bounds (min-edge ≪ max-edge).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.workloads import degenerate_inputs, make_workload
from repro.core.bounds import theorem9_bound
from repro.geometry.minimax import delta_star
from repro.geometry.norms import max_edge_length, min_edge_length

from ._util import report, rng_for

TRIALS = 6


class TestTheorem8:
    def test_degenerate_inputs_zero_delta(self):
        rows = []
        for d, n in [(3, 4), (5, 4), (5, 6), (6, 5)]:
            worst = 0.0
            for i in range(TRIALS):
                rng = rng_for(f"thm8-{d}-{n}", i)
                S = degenerate_inputs(rng, n, d, rank=n - 2)
                val = delta_star(S, 1).value
                worst = max(worst, val)
                assert val < 1e-6, f"d={d}, n={n}"
            rows.append([d, n, TRIALS, worst, "OK"])
        report(
            "Theorem 8: affinely dependent inputs give delta* = 0",
            ["d", "n", "trials", "max delta*", "verdict"],
            rows,
        )


class TestTheorem9:
    def test_both_bounds_all_workloads(self):
        rows = []
        all_ok = True
        for d in (3, 4, 5):
            n = d + 1
            for wl in ("gaussian", "sphere", "clustered"):
                util_min, util_max = 0.0, 0.0
                for i in range(TRIALS):
                    rng = rng_for(f"thm9-{d}-{wl}", i)
                    honest = make_workload(wl, rng, n - 1, d)
                    wild = honest.mean(axis=0) + rng.normal(size=(1, d)) * 30.0
                    S = np.vstack([honest, wild])
                    val = delta_star(S, 1).value
                    b_min = min_edge_length(honest) / 2
                    b_max = max_edge_length(honest) / (n - 2)
                    util_min = max(util_min, val / b_min if b_min else 0)
                    util_max = max(util_max, val / b_max if b_max else 0)
                    ok = val < min(b_min, b_max) + 1e-7
                    all_ok &= ok
                rows.append([d, n, wl, util_min, util_max,
                             "OK" if all_ok else "VIOLATION"])
        report(
            "Theorem 9 (f=1, n=d+1): delta* vs both bounds "
            "(utilisation = delta*/bound, must stay < 1)",
            ["d", "n", "workload", "max util (min-edge/2)",
             "max util (max-edge/(n-2))", "verdict"],
            rows,
        )
        assert all_ok


    def test_case2_fewer_inputs(self):
        """Case II: 4 <= n < d+1 — the bound with n (not d) in the
        denominator, via the isometric projection argument."""
        rows = []
        for d, n in [(5, 4), (6, 4), (6, 5), (8, 5)]:
            ok_all = True
            for i in range(TRIALS):
                rng = rng_for(f"thm9c2-{d}-{n}", i)
                honest = make_workload("gaussian", rng, n - 1, d)
                wild = honest.mean(axis=0, keepdims=True) + 25.0
                S = np.vstack([honest, wild])
                val = delta_star(S, 1).value
                ok_all &= val < theorem9_bound(honest, n) + 1e-7
            rows.append([d, n, TRIALS, "OK" if ok_all else "VIOLATION"])
            assert ok_all
        report(
            "Theorem 9 Case II (n < d+1): bounds via projected simplex",
            ["d", "n", "trials", "verdict"],
            rows,
        )
