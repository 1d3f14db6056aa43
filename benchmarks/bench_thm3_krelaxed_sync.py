"""Experiment E-THM3 — Theorem 3's necessity construction, executed.

Paper claim: for k-relaxed exact BVC with ``2 <= k <= d-1`` (synchronous),
``n = (d+1)f`` processes are insufficient — witnessed by the explicit
``d x (d+1)`` matrix whose admissible output set ``Ψ(Y) = ∩_T H_k(T)`` is
empty — while ``n = (d+1)f + 1`` suffices (Theorem 1 via Lemma 3).

Measured: Ψ emptiness verdicts across d and k, the ``k = 1`` escape hatch
(nonempty — matching the 3f+1 bound for 1-relaxed consensus), and the
recovery one process above the bound.
"""

from __future__ import annotations

import numpy as np

from repro.core.lower_bounds import theorem3_inputs
from repro.geometry.intersections import psi_k, psi_k_point

from ._util import report


class TestTheorem3:
    def test_construction_matrix(self):
        rows = []
        for d in (3, 4, 5):
            for k in range(1, d):
                Y = theorem3_inputs(d)
                empty = psi_k_point(Y, 1, k) is None
                paper = "empty" if k >= 2 else "nonempty"
                got = "empty" if empty else "nonempty"
                rows.append([d, k, d + 1, paper, got,
                             "OK" if paper == got else "MISMATCH"])
                assert paper == got, f"d={d}, k={k}"
        report(
            "Theorem 3: Psi(Y) emptiness for the proof matrix (f=1, n=d+1)",
            ["d", "k", "n", "paper", "measured", "verdict"],
            rows,
        )

    def test_one_more_process_recovers(self):
        """Adding any (d+2)-th input restores nonemptiness: n=(d+1)f+1 is
        sufficient (Theorem 1 + Lemma 3), so the bound is *tight*."""
        rows = []
        for d in (3, 4):
            Y = theorem3_inputs(d)
            extra = np.vstack([Y, Y.mean(axis=0, keepdims=True)])
            got = psi_k(extra, 1, 2)
            rows.append([d, 2, d + 2, "nonempty", "nonempty" if got else "empty",
                         "OK" if got else "MISMATCH"])
            assert got
        report(
            "Theorem 3 tightness: n=(d+1)f+1 makes Psi nonempty",
            ["d", "k", "n", "paper", "measured", "verdict"],
            rows,
        )
