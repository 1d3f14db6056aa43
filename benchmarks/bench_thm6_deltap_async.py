"""Experiment E-THM6 — Appendix C: constant δ does not reduce n (async).

Paper claim: for (δ,p)-relaxed *approximate* BVC with constant
0 < δ < ∞, ``n = (d+2)f`` is insufficient: with the Appendix-C matrix and
``x > 2dδ + ε``, any algorithm's outputs at processes 1 and 2 must differ
by more than ε in L_inf.

Measured: minimum achievable separation vs the ε threshold, across d and
the x threshold.
"""

from __future__ import annotations


from repro.core.lower_bounds import theorem6_verdict

from ._util import report


class TestTheorem6:
    def test_forced_disagreement(self):
        rows = []
        delta, eps = 0.2, 0.1
        for d in (2, 3, 4):
            sep, threshold = theorem6_verdict(d, delta, eps)
            ok = sep is None or sep > threshold - 1e-7
            rows.append([d, delta, eps, d + 2, f"> {threshold}",
                         "empty-set" if sep is None else f"{sep:.4f}",
                         "OK" if ok else "MISMATCH"])
            assert ok, f"d={d}"
        report(
            "Theorem 6 / Appendix C: forced |v1-v2|_inf for n=(d+2)f, constant delta",
            ["d", "delta", "eps", "n", "paper (sep)", "measured sep", "verdict"],
            rows,
        )

    def test_below_threshold_overlap(self):
        """With x <= 2dδ + ε the construction loses its teeth: the output
        sets can coincide — confirming the proof needs its x condition."""
        rows = []
        for d in (2, 3):
            sep, eps = theorem6_verdict(d, delta=0.5, eps=0.1, x=0.2)
            ok = sep is not None and sep <= eps
            rows.append([d, 0.5, 0.1, 0.2, "<= eps",
                         "empty-set" if sep is None else f"{sep:.4f}",
                         "OK" if ok else "MISMATCH"])
            assert ok
        report(
            "Theorem 6: small x makes the output sets overlap (sanity side)",
            ["d", "delta", "eps", "x", "paper", "measured sep", "verdict"],
            rows,
        )
