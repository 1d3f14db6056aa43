"""Experiments E-FN3 and E-LEM10 — the paper's two side remarks, executed.

* Footnote 3 (§9): "When the underlying network is a reliable broadcast
  channel ... n does not need to exceed 3f."  On the atomic-broadcast
  channel model, ALGO runs with ``n = 3f`` processes — equivocation is
  physically impossible, so Step 1 needs a single exchange.
* Lemma 10 / Appendix A: input-dependent (δ,p)-consensus is impossible
  with ``n <= 3f`` on point-to-point networks — demonstrated by the
  six-copy ring construction, which forces any protocol meeting its
  scenario-B validity obligations into an agreement violation.

Together they bracket the 3f threshold from both sides.
"""

from __future__ import annotations

import numpy as np

from repro.core.lemma10 import NaiveAveragingProcess, lemma10_demo, run_ring
from repro.system.adversary import Adversary, MutateStrategy, SilentStrategy

from ._util import report, rng_for, run_spec


class TestFootnote3:
    def test_algo_at_n_equals_3f(self):
        """ALGO over the broadcast channel with n = 3 = 3f, f = 1."""
        rows = []
        for d in (2, 3, 4):
            for name, strat in [
                ("honest", None),
                ("silent", SilentStrategy()),
                ("consistent-lie", MutateStrategy(
                    lambda tag, p, rng: tuple(50.0 for _ in p)
                )),
            ]:
                rng = rng_for(f"fn3-{d}-{name}")
                inputs = rng.normal(size=(3, d))
                adv = (
                    Adversary(faulty=[2])
                    if strat is None
                    else Adversary(faulty=[2], strategy=strat)
                )
                out = run_spec(algorithm="algo", inputs=inputs, f=1,
                               adversary=adv, broadcast="atomic")
                rows.append([d, 3, name, out.delta_used, out.result.rounds,
                             "OK" if out.ok else "FAILED"])
                assert out.ok, f"d={d}, {name}"
                assert out.result.rounds == 2
        report(
            "Footnote 3: ALGO on a broadcast channel with n = 3f (f=1)",
            ["d", "n", "adversary", "delta*", "rounds", "verdict"],
            rows,
        )


class TestLemma10:
    def test_ring_contradiction(self):
        """The ring forces adjacent (p0, r1) — a correct pair in scenario
        C — into disagreement for the naive protocol."""
        rows = []
        for d in (1, 2, 4):
            res = lemma10_demo(d=d)
            viol = res.agreement_violation()
            rows.append([d, 3, 1, viol, "OK" if viol > 0.1 else "MISMATCH"])
            assert viol > 0.1
        report(
            "Lemma 10 / Appendix A: forced agreement violation on the "
            "six-copy ring (point-to-point, n = 3f)",
            ["d", "n (per scenario)", "f", "|p0 - r1|_inf", "verdict"],
            rows,
        )

    def test_scenario_b_validity_anchors(self):
        """The all-same-copy nodes decide their copy's input exactly —
        the scenario-B validity obligations the contradiction pivots on."""
        res = run_ring(NaiveAveragingProcess, d=2)
        from repro.core.lemma10 import P, Q

        rows = [
            ["q0 (scenario B, all-0 view)", str(np.round(res.decisions[(Q, 0)], 4))],
            ["q1 (scenario B', all-1 view)", str(np.round(res.decisions[(Q, 1)], 4))],
            ["p0", str(np.round(res.decisions[(P, 0)], 4))],
            ["r1", str(np.round(res.r1, 4))],
        ]
        report("Lemma 10 ring decisions (d=2)", ["node", "decision"], rows)
        np.testing.assert_allclose(res.decisions[(Q, 0)], 0.0)
        np.testing.assert_allclose(res.decisions[(Q, 1)], 1.0)
