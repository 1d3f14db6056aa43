"""Experiment E-RVA — Relaxed Verified Averaging, asynchronous, end to end.

Paper claims (§10, Theorem 15):

* with only ``n = d+1 < (d+2)f+1`` processes the algorithm achieves
  ε-agreement, termination, and (δ,p)-relaxed validity, with the round-1
  δ below κ(n-f, f, d, p)·max-edge (when n-f is in κ's range);
* the δ = 0 classic verified averaging (the Mendes–Herlihy-regime
  baseline) needs ``n >= (d+2)f+1`` — our baseline succeeds there and
  the relaxed algorithm matches it with zero δ.

Measured: achieved agreement diameter vs ε, rounds/steps to terminate,
achieved δ, across schedulers (random / starvation) and adversaries.
"""

from __future__ import annotations

import numpy as np

from repro.core.averaging import rounds_for_epsilon
from repro.system.adversary import Adversary, SilentStrategy
from repro.system.scheduler import DelayPolicy

from ._util import OBS_HEADERS, obs_columns, report, rng_for, run_spec


class TestRVA:
    def test_below_classic_bound(self):
        rows = []
        for d in (3, 4):
            n = d + 1
            for name, adv in [
                ("honest", Adversary(faulty=[n - 1])),
                ("silent", Adversary(faulty=[n - 1], strategy=SilentStrategy())),
            ]:
                rng = rng_for(f"rva-{d}-{name}")
                inputs = rng.normal(size=(n, d))
                out = run_spec(algorithm="averaging", inputs=inputs, f=1,
                               adversary=adv, epsilon=1e-2, seed=d)
                rows.append([d, n, name, out.delta_used,
                             out.report.agreement_diameter,
                             out.result.rounds,
                             *obs_columns(out),
                             "OK" if out.ok else "FAILED"])
                assert out.ok, f"d={d}, {name}: {out.report}"
        report(
            "RVA end-to-end (f=1, n=d+1 < (d+2)f+1): eps-agreement + "
            "(delta,2)-validity",
            ["d", "n", "adversary", "delta", "agreement diam", "steps",
             *OBS_HEADERS, "verdict"],
            rows,
        )

    def test_epsilon_sweep_convergence(self):
        """Rounds grow logarithmically in 1/ε; agreement always achieved."""
        rows = []
        rng = rng_for("rva-eps")
        inputs = rng.normal(size=(4, 3))
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            out = run_spec(
                algorithm="averaging", inputs=inputs, f=1,
                adversary=Adversary(faulty=[3]), epsilon=eps, seed=5,
            )
            planned = rounds_for_epsilon(
                3.0 * float(np.max(inputs.max(axis=0) - inputs.min(axis=0))), 4, 1, eps
            )
            rows.append([eps, planned, out.report.agreement_diameter,
                         "OK" if out.report.agreement_diameter <= eps else "MISS"])
            assert out.report.agreement_diameter <= eps
        report(
            "RVA: eps sweep — planned rounds (contraction bound) vs achieved diameter",
            ["eps", "planned rounds", "achieved diam", "verdict"],
            rows,
        )

    def test_adversarial_schedule(self):
        """Starvation scheduling (DelayPolicy) cannot break ε-agreement —
        only slow it down."""
        rows = []
        rng = rng_for("rva-sched")
        inputs = rng.normal(size=(4, 3))
        for name, policy in [("random", None), ("starve-p0", DelayPolicy(victims=[0]))]:
            out = run_spec(
                algorithm="averaging", inputs=inputs, f=1,
                adversary=Adversary(faulty=[3], strategy=SilentStrategy()),
                epsilon=1e-2, policy=policy, seed=6,
            )
            rows.append([name, out.result.rounds, out.report.agreement_diameter,
                         "OK" if out.ok else "FAILED"])
            assert out.ok
        report(
            "RVA under adversarial delivery schedules",
            ["schedule", "steps", "agreement diam", "verdict"],
            rows,
        )

    def test_zero_delta_baseline_crossover(self):
        """δ=0 verified averaging works at n=(d+2)f+1 and the relaxed
        algorithm then achieves δ=0 as well — the two coincide above the
        classic bound, and only the relaxed one exists below it."""
        rows = []
        d, f = 2, 1
        for n, mode in [(5, "zero"), (5, "optimal"), (4, "optimal")]:
            rng = rng_for(f"rva-base-{n}-{mode}")
            inputs = rng.normal(size=(n, d))
            out = run_spec(
                algorithm="averaging", inputs=inputs, f=f,
                adversary=Adversary(faulty=[n - 1], strategy=SilentStrategy()),
                mode=mode, epsilon=1e-2, seed=7,
            )
            rows.append([n, mode, out.delta_used,
                         out.report.agreement_diameter,
                         "OK" if out.ok else "FAILED"])
            assert out.ok
        report(
            "RVA vs classic verified averaging across the (d+2)f+1 crossover (d=2)",
            ["n", "mode", "delta used", "agreement diam", "verdict"],
            rows,
        )
