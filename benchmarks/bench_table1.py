"""Experiment T1 — the paper's **Table 1**: upper bounds on the achievable
input-dependent δ, measured.

Paper rows (δ* under L2, E+ = edges between non-faulty inputs):

* f = 1, n = (d+1)f:      δ* < min(min-edge/2, max-edge/(n-2))   [Thm 9]
* f >= 2, n = (d+1)f:     δ* < max-edge/(d-1)                    [Thm 12]
* 3f+1 <= n < (d+1)f:     δ* < max-edge/(⌊n/f⌋-2)                [Conj 1]

Measured: δ*(S) from the certified min-max solver, over gaussian /
sphere / clustered workloads with the faulty inputs placed adversarially
far outside the honest hull (the bound must hold regardless of the faulty
values — that is its whole point).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import measure_delta_star, summarize_trials
from repro.analysis.workloads import make_workload
from repro.core.bounds import conjecture1_bound, theorem9_bound, theorem12_bound

from ._util import report, rng_for

WORKLOADS = ["gaussian", "sphere", "clustered"]
TRIALS_PER_CELL = 6


def _with_adversarial_faulty(rng, honest: np.ndarray, f: int) -> np.ndarray:
    """Append f faulty rows far outside the honest hull."""
    d = honest.shape[1]
    wild = honest.mean(axis=0) + rng.normal(size=(f, d)) * 50.0
    return np.vstack([honest, wild])


def _sweep(configs, bound_fn):
    rows = []
    all_ok = True
    for (d, f, n, label) in configs:
        for wl in WORKLOADS:
            trials = []
            for i in range(TRIALS_PER_CELL):
                rng = rng_for(f"t1-{label}-{wl}-{d}-{f}-{n}", i)
                honest = make_workload(wl, rng, n - f, d)
                inputs = _with_adversarial_faulty(rng, honest, f)
                bound = bound_fn(d, f, n, honest)
                trials.append(
                    measure_delta_star(inputs, list(range(n - f, n)), f, bound=bound)
                )
            s = summarize_trials(trials)
            all_ok &= s.all_within_bound
            rows.append(
                [label, wl, d, f, n, s.max_delta, s.max_bound_utilisation,
                 "OK" if s.all_within_bound else "VIOLATION"]
            )
    return rows, all_ok


class TestTable1:
    def test_theorem9_row(self):
        """f=1, n=(d+1)f: measured δ* within min(min-edge/2, max-edge/(n-2))."""
        configs = [(d, 1, d + 1, "Thm9") for d in (3, 4, 5, 6)]
        rows, ok = _sweep(
            configs, lambda d, f, n, honest: theorem9_bound(honest, n)
        )
        report(
            "Table 1 / Theorem 9 (f=1, n=d+1): delta* vs paper bound",
            ["row", "workload", "d", "f", "n", "max delta*", "max delta*/bound", "verdict"],
            rows,
        )
        assert ok, "a Theorem 9 bound was violated"


    def test_theorem12_row(self):
        """f=2, n=(d+1)f: measured δ* within max-edge/(d-1)."""
        configs = [(3, 2, 8, "Thm12"), (4, 2, 10, "Thm12")]
        rows, ok = _sweep(
            configs, lambda d, f, n, honest: theorem12_bound(honest, d)
        )
        report(
            "Table 1 / Theorem 12 (f=2, n=(d+1)f): delta* vs paper bound",
            ["row", "workload", "d", "f", "n", "max delta*", "max delta*/bound", "verdict"],
            rows,
        )
        assert ok, "a Theorem 12 bound was violated"


    def test_conjecture1_row(self):
        """f=2, 3f+1 <= n < (d+1)f: Conjecture 1's max-edge/(⌊n/f⌋-2)."""
        configs = [(4, 2, 7, "Conj1"), (4, 2, 8, "Conj1"), (5, 2, 9, "Conj1")]
        rows, ok = _sweep(
            configs, lambda d, f, n, honest: conjecture1_bound(honest, n, f)
        )
        report(
            "Table 1 / Conjecture 1 (f=2, 3f+1<=n<(d+1)f): delta* vs conjectured bound",
            ["row", "workload", "d", "f", "n", "max delta*", "max delta*/bound", "verdict"],
            rows,
        )
        assert ok, "a Conjecture 1 bound was violated (counterexample found!)"
