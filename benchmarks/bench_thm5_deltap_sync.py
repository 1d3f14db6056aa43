"""Experiment E-THM5 — Theorem 5: constant δ does not reduce n (sync).

Paper claim: for (δ,p)-relaxed *exact* BVC with any constant 0 < δ < ∞,
``n = (d+1)f`` is insufficient.  Proof exhibits the x-scaled basis matrix
(x > 2dδ) making ``∩_T H_{(δ,∞)}(T)`` empty; the L_inf result transfers to
every p >= 1 because ``H_{(δ,p)} ⊆ H_{(δ,∞)}``.

Measured: the emptiness threshold in x — empty above 2dδ (the paper's
regime), nonempty well below — and the L2 transfer.
"""

from __future__ import annotations

import math


from repro.core.lower_bounds import theorem5_inputs, theorem5_verdict
from repro.geometry.intersections import gamma_delta_p

from ._util import report


class TestTheorem5:
    def test_threshold_sweep(self):
        rows = []
        delta = 0.25
        for d in (2, 3, 4):
            for mult in (0.4, 0.8, 1.2, 2.0):
                x = 2 * d * delta * mult
                empty = theorem5_verdict(d, delta, x=x)
                paper = "empty" if mult > 1.0 else "?"
                ok = empty if mult > 1.0 else True
                rows.append([d, delta, f"{mult:.1f}·2dδ", paper,
                             "empty" if empty else "nonempty",
                             "OK" if ok else "MISMATCH"])
                if mult > 1.0:
                    assert empty, f"d={d}, x={x}"
        report(
            "Theorem 5: emptiness of ∩H_(δ,∞)(T) for the basis matrix (f=1, n=d+1)",
            ["d", "delta", "x", "paper", "measured", "verdict"],
            rows,
        )

    def test_lp_transfer(self):
        """Empty under L_inf ⇒ empty under L2 and L1 (norm containment)."""
        rows = []
        delta, d = 0.25, 3
        x = 2 * d * delta * 1.5
        Y = theorem5_inputs(d, x)
        for p in (math.inf, 2, 1):
            empty = not gamma_delta_p(Y, 1, delta, p)
            rows.append([d, delta, str(p), "empty", "empty" if empty else "nonempty",
                         "OK" if empty else "MISMATCH"])
            assert empty
        report(
            "Theorem 5: transfer of emptiness across norms",
            ["d", "delta", "p", "paper", "measured", "verdict"],
            rows,
        )
