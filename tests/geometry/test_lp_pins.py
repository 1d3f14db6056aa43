"""Bytes and sizes the LP door must keep — cut on the commit before it.

Every literal below was printed by dense rows into
``scipy.optimize.linprog`` for the same input (the scale guard's point by
the sparse central-point LP, cut when it replaced the lexicographic one);
the sparse rows through ``repro.geometry.lp.solve_lp`` must give the same
bytes.  They depend on the HiGHS inside the installed SciPy, like the
pinned sweep digests, so they live apart from ``test_lp.py`` (door ≡
``linprog`` on *any* SciPy).
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.geometry.cache import cache_disabled
from repro.geometry.distance import distance_to_hull
from repro.geometry.intersections import gamma_point
from repro.geometry.minimax import delta_star
from repro.geometry.polytope import _chebyshev_center, _hull_halfspaces_matrix


def _inputs_13_2() -> np.ndarray:
    return np.random.default_rng(2016).normal(scale=3.0, size=(13, 2))


class TestScaleGuard:
    """Γ over C(13, 4) = 715 subsets: 2,145 rows by 6,438 columns.  Dense,
    ``A_eq`` alone is 110 MB and one solve took seconds; sparse, the whole
    call stays in a few MiB.  Deterministic, not timed."""

    def test_gamma_point_13_2_4_stays_small_and_keeps_its_bytes(self):
        Y = _inputs_13_2()
        tracemalloc.start()
        try:
            point = gamma_point.__wrapped__(Y, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert point.tobytes().hex() == "258b86100706ddbf64895d6501a2e1bf"
        assert peak < 16 * 2**20

    def test_algo_over_dolev_strong_at_13_2_4_runs(self):
        # the cell ROADMAP item 6(f) wants back in sim-broadcast
        outcome = run(RunSpec(algorithm="algo", inputs=_inputs_13_2(), f=4,
                              broadcast="dolev-strong", seed=5))
        assert outcome.ok


class TestCallSitesKeepTheirBytes:
    """One literal per call site that is not ``_HullSystem`` (those are
    held by ``test_lp.py`` and the pinned digests): Γ is empty at
    (n, d, f) = (4, 3, 1), so δ* runs its exact LP (p = 1, ∞) and the
    Kelley master LPs (p = 2)."""

    rng = np.random.default_rng(23)
    S = rng.normal(scale=3.0, size=(4, 3))
    x = rng.normal(scale=3.0, size=3)

    @pytest.mark.parametrize(
        "p, value, point",
        [
            (1, "0x1.6c4f9ea0516aep-2",
             "92416553778efa3f6c43cace1e23f03ff2c012d4a544c6bf"),
            (math.inf, "0x1.d81cc2502a01fp-3",
             "91b379a8ddadf93fc07f878fc827ef3f6a38bc24b328e0bf"),
            (2, "0x1.4ae4c1e0bbe21p-2",
             "e8410cb2143afa3fa5980c248afcef3f8858e894ade0d3bf"),
        ],
    )
    def test_delta_star(self, p, value, point):
        with cache_disabled():
            result = delta_star(self.S, 1, p=p)
        assert float(result.value).hex() == value
        assert result.point.tobytes().hex() == point

    @pytest.mark.parametrize(
        "p, distance, point",
        [
            (1, "0x1.8e8bc424aab7ap+1",
             "e46232de5c7aedbf3b2f1ea7b891f63f0c7295416ff2fbbf"),
            (math.inf, "0x1.65539196dc577p+1",
             "83f3fc0cb26bf23f2ffbd7f8beb8fb3ff01846f102b8f03f"),
        ],
    )
    def test_hull_distance(self, p, distance, point):
        proj = distance_to_hull(self.S, self.x, p)
        assert float(proj.distance).hex() == distance
        assert proj.point.tobytes().hex() == point

    def test_chebyshev_center(self):
        halfspaces = _hull_halfspaces_matrix(np.vstack([self.S, -self.S]))
        center, radius = _chebyshev_center(halfspaces)
        assert float(radius).hex() == "0x1.3f0c6d68a12acp+0"
        assert np.asarray(center).tobytes().hex() == (
            "ef7220986d8f00401b8b946ea1a8d83f9dc371cfa654f73f"
        )
