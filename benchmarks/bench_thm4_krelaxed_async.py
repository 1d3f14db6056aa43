"""Experiment E-THM4 — Appendix B: asynchronous k-relaxed necessity.

Paper claim: ``n = (d+2)f`` processes cannot achieve ε-agreement for
k-relaxed approximate BVC (2 <= k <= d-1): with the Appendix-B input
matrix, the admissible output sets of processes 1 and 2 are forced at
``||v1 - v2||_inf >= 2ε`` — beyond any ε < 2ε agreement.

Measured: the *minimum* achievable L_inf separation between Ψ_1 and Ψ_2
(one LP), compared with the paper's 2ε threshold.
"""

from __future__ import annotations


from repro.core.lower_bounds import theorem4_verdict

from ._util import report


class TestTheorem4:
    def test_forced_disagreement(self):
        rows = []
        for d in (3, 4):
            for eps in (0.1, 0.2, 0.4):
                sep, threshold = theorem4_verdict(d, k=2, eps=eps)
                measured = "empty-set" if sep is None else f"{sep:.4f}"
                ok = sep is None or sep >= threshold - 1e-7
                rows.append([d, 2, d + 2, eps, f">= {threshold:.3f}", measured,
                             "OK" if ok else "MISMATCH"])
                assert ok, f"d={d}, eps={eps}"
        report(
            "Theorem 4 / Appendix B: forced |v1-v2|_inf for n=(d+2)f (f=1, k=2)",
            ["d", "k", "n", "eps", "paper (sep)", "measured sep", "verdict"],
            rows,
        )

    def test_separation_grows_with_eps(self):
        """The construction scales: larger ε forces larger separation."""
        seps = []
        for eps in (0.05, 0.1, 0.2):
            sep, _ = theorem4_verdict(3, k=2, eps=eps)
            assert sep is not None
            seps.append(sep)
        assert seps == sorted(seps)
        report(
            "Theorem 4: separation scaling in eps (d=3)",
            ["eps", "separation"],
            [[e, s] for e, s in zip((0.05, 0.1, 0.2), seps)],
        )
