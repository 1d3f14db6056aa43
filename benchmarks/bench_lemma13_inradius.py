"""Experiment E-LEM13 — Lemma 13: δ*(S) equals the simplex inradius.

Paper claim: for ``f = 1`` and ``S`` a non-degenerate simplex (``n = d+1``
affinely independent inputs), the smallest achievable relaxation is
exactly the radius of the inscribed sphere, attained at the incenter.

Measured: the numerical min-max optimum vs the closed-form
``r = 1/Σ||b_i||`` (Lemma 12), across dimensions — this doubles as the
end-to-end validation of the cutting-plane solver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.workloads import simplex_inputs
from repro.geometry.minimax import delta_star
from repro.geometry.simplex import incenter_and_inradius

from ._util import report, rng_for

TRIALS = 5


class TestLemma13:
    def test_delta_star_equals_inradius(self):
        rows = []
        for d in (2, 3, 4, 5, 6, 7):
            worst_rel = 0.0
            worst_center = 0.0
            for i in range(TRIALS):
                rng = rng_for(f"lem13-{d}", i)
                S = simplex_inputs(rng, d + 1, d)
                center, r = incenter_and_inradius(S)
                res = delta_star(S, 1)
                worst_rel = max(worst_rel, abs(res.value - r) / r)
                worst_center = max(
                    worst_center, float(np.linalg.norm(res.point - center))
                )
                assert abs(res.value - r) / r < 1e-6, f"d={d} trial={i}"
            rows.append([d, TRIALS, worst_rel, worst_center, "OK"])
        report(
            "Lemma 13: delta*(simplex) == inradius (f=1, n=d+1)",
            ["d", "trials", "max rel err (delta*)", "max |p0 - incenter|", "verdict"],
            rows,
        )

    def test_closed_form_kernel(self):
        """The closed form (the fast path ALGO could use for f=1, n=d+1
        simplex inputs) gives the min-max solver's δ* at d = 5."""
        S = simplex_inputs(rng_for("lem13-closed"), 6, 5)
        r = incenter_and_inradius(S)[1]
        assert r == pytest.approx(delta_star(S, 1).value, rel=1e-6)
