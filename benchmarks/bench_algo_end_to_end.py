"""Experiment E-ALGO — the paper's ALGO, end to end through the simulator.

Paper claim (§9): with only ``n = d+1 < (d+1)f+1`` processes (f = 1,
d >= 3) — where *exact* BVC is impossible (Theorem 1) — ALGO achieves
agreement, termination, and (δ*, 2)-relaxed validity with δ* honouring
Theorem 9's input-dependent bound.

Measured: full protocol runs (OM(f) Byzantine broadcast + the δ* Step 2)
under the adversary battery; validity/agreement verdicts; achieved δ*
against the bound; message counts and wall-clock per run.  The baseline
comparison: exact BVC (δ = 0) *fails* (raises) at the same n, succeeds at
n = (d+1)f+1 — who wins and where the crossover sits matches the paper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import theorem9_bound
from repro.system.adversary import (
    Adversary,
    CrashStrategy,
    EquivocateStrategy,
    MutateStrategy,
    SilentStrategy,
)

from ._util import OBS_HEADERS, obs_columns, report, rng_for, run_spec


def _adversaries():
    def lie(tag, payload, rng):
        path, value = payload
        if value is None:
            return payload
        return (path, tuple(v + 5.0 for v in value))

    def equiv(tag, payload, dst, rng):
        path, value = payload
        if value is None:
            return payload
        return (path, tuple(v + float(dst) for v in value))

    return {
        "honest": None,
        "silent": SilentStrategy(),
        "crash": CrashStrategy(1),
        "lie": MutateStrategy(lie),
        "equivocate": EquivocateStrategy(equiv),
    }


class TestAlgoEndToEnd:
    def test_below_classic_bound_all_adversaries(self):
        rows = []
        for d in (3, 4, 5):
            n = d + 1
            for name, strat in _adversaries().items():
                rng = rng_for(f"algo-{d}-{name}")
                inputs = rng.normal(size=(n, d))
                adv = (
                    Adversary(faulty=[n - 1])
                    if strat is None
                    else Adversary(faulty=[n - 1], strategy=strat)
                )
                out = run_spec(algorithm="algo", inputs=inputs, f=1,
                               adversary=adv, seed=d)
                rows.append([d, n, name, out.delta_used,
                             *obs_columns(out),
                             "OK" if out.ok else "FAILED"])
                assert out.ok, f"d={d}, adversary={name}: {out.report}"
        report(
            "ALGO end-to-end (f=1, n=d+1 < (d+1)f+1): agreement + "
            "(delta*,2)-validity under adversaries",
            ["d", "n", "adversary", "delta*", *OBS_HEADERS, "verdict"],
            rows,
        )

    def test_crossover_vs_exact_bvc(self):
        """The baseline comparison: exact BVC needs (d+1)f+1; ALGO works
        from 3f+1 with δ growing as n shrinks."""
        rows = []
        d = 3
        for n in (4, 5):
            rng = rng_for(f"algo-cross-{n}")
            inputs = rng.normal(size=(n, d))
            adv = Adversary(faulty=[n - 1])
            algo = run_spec(algorithm="algo", inputs=inputs, f=1, adversary=adv,
                            seed=1)
            if n >= (d + 1) * 1 + 1:
                exact = run_spec(algorithm="exact", inputs=inputs, f=1,
                                 adversary=adv, seed=1)
                exact_status = "OK" if exact.ok else "FAILED"
            else:
                with pytest.raises(Exception):
                    run_spec(algorithm="exact", inputs=inputs, f=1,
                             adversary=adv, seed=1)
                exact_status = "IMPOSSIBLE (Γ empty)"
            rows.append([d, n, algo.delta_used,
                         "OK" if algo.ok else "FAILED", exact_status])
            assert algo.ok
        report(
            "ALGO vs exact BVC across the (d+1)f+1 crossover (d=3, f=1)",
            ["d", "n", "ALGO delta*", "ALGO", "exact BVC"],
            rows,
        )

    def test_delta_bound_honoured_outlier_faults(self):
        """The regime the bound protects: a faulty input far OUTSIDE the
        honest hull (inside the hull, Γ contains it and δ* collapses to
        0).  The measured δ* must stay below the Theorem 9 bound computed
        over honest edges only."""
        rows = []
        for d in (3, 4):
            rng = rng_for(f"algo-bound-{d}")
            honest = rng.normal(size=(d, d))
            outlier = honest.mean(axis=0, keepdims=True) + 40.0
            inputs = np.vstack([honest, outlier])
            out = run_spec(algorithm="algo", inputs=inputs, f=1,
                           adversary=Adversary(faulty=[d]), seed=2)
            bound = theorem9_bound(out.honest_inputs, d + 1)
            rows.append([d, d + 1, out.delta_used, bound,
                         "OK" if out.delta_used < bound else "VIOLATION"])
            assert out.ok and out.delta_used < bound
            assert out.delta_used > 0, "outlier fault should force δ* > 0"
        report(
            "ALGO: achieved delta* vs Theorem 9 bound (outlier faulty input)",
            ["d", "n", "delta*", "Thm 9 bound", "verdict"],
            rows,
        )
