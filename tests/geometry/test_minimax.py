"""Tests for the certified δ*(S) min-max solver (ALGO Step 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.workloads import degenerate_inputs, simplex_inputs
from repro.geometry.distance import distance_to_hull
from repro.geometry.intersections import f_subsets, gamma_point
from repro.geometry.minimax import delta_star, max_subset_distance
from repro.geometry.simplex import incenter_and_inradius


class TestDeltaStarBasics:
    def test_rejects_bad_f(self, rng):
        S = rng.normal(size=(4, 2))
        with pytest.raises(ValueError):
            delta_star(S, 4)
        with pytest.raises(ValueError):
            delta_star(S, -1)

    def test_f_zero_gives_zero(self, rng):
        """With no faults the only subset is S itself: any hull point
        works, δ* = 0."""
        S = rng.normal(size=(4, 3))
        res = delta_star(S, 0)
        assert res.value == 0.0

    def test_gamma_nonempty_gives_zero(self, rng):
        """n >= (d+1)f+1: Tverberg makes Γ nonempty, so δ* = 0."""
        S = rng.normal(size=(4, 2))  # d=2, f=1, n=4=(d+1)f+1
        res = delta_star(S, 1)
        assert res.value == 0.0
        assert np.all(max_subset_distance(S, res.point, res.subsets, 2) < 1e-6)

    def test_distances_align_with_subsets(self, rng):
        S = rng.normal(size=(4, 3))
        res = delta_star(S, 1)
        dists = max_subset_distance(S, res.point, res.subsets, 2)
        assert dists.shape == (len(res.subsets),)
        for T, dist in zip(res.subsets, dists):
            assert dist == distance_to_hull(S[list(T)], res.point, 2).distance
        assert max(dists) == pytest.approx(res.value, abs=1e-6)


class TestLemma13:
    """δ*(S) equals the simplex inradius for f=1, n=d+1 (Lemma 13)."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_inradius(self, d):
        for seed in range(3):
            rng = np.random.default_rng(seed + 10 * d)
            S = simplex_inputs(rng, d + 1, d)
            center, r = incenter_and_inradius(S)
            res = delta_star(S, 1)
            assert res.value == pytest.approx(r, rel=1e-6), f"d={d} seed={seed}"
            assert res.gap <= 1e-6
            # the minimiser is (close to) the incenter
            np.testing.assert_allclose(res.point, center, atol=1e-4)

    def test_certificate_gap_small(self, rng):
        S = simplex_inputs(rng, 5, 4)
        res = delta_star(S, 1)
        assert res.gap <= 1e-7 * max(1.0, res.value)


def place(S0: np.ndarray, d: int, rng: np.random.Generator):
    """``S0 ⊂ R^k`` carried into ``R^d`` by a random orthonormal map ``Q``
    plus a translation ``t``: ``(S0 @ Q.T + t, Q, t)``."""
    Q, _ = np.linalg.qr(rng.normal(size=(d, S0.shape[1])))
    t = rng.normal(size=d)
    return S0 @ Q.T + t, Q, t


class TestLemma13InAffineHull:
    """A k-simplex placed in R^d, d > k: δ* is solved inside its affine
    hull (Theorem 8's distance-preserving projection), so Lemma 13 holds
    there exactly — the inradius, attained at the placed incenter, in a
    few cutting-plane iterations rather than a crawl along the normals."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("extra", [1, 2])
    def test_placed_simplex_gives_its_incenter(self, k, extra):
        for seed in range(3):
            rng = np.random.default_rng([k, extra, seed])
            S0 = simplex_inputs(rng, k + 1, k, min_inradius=0.25)
            E, Q, t = place(S0, k + extra, rng)
            center, r = incenter_and_inradius(S0)
            res = delta_star(E, 1)
            scale = float(np.max(np.ptp(E, axis=0)))
            assert res.value == pytest.approx(r, rel=1e-9, abs=0.0)
            np.testing.assert_allclose(
                res.point, center @ Q.T + t, rtol=0.0, atol=1e-9 * scale
            )
            assert res.iterations <= 5


class TestAffineHullReduction:
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 2),
           st.integers(1, 2), st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_placed_inputs_keep_delta_star(self, seed, k, f, extra, pick):
        # n in [k+1, (k+1)f], n > f: S0 spans R^k and Γ is (generically)
        # empty.  Each value is within its certified gap above the one true
        # δ*, so they agree to the larger gap; a full-rank solve that runs
        # to the 100-LP cap stops at a gap of a few 1e-8, over 1e-9 relative.
        lo = max(k + 1, f + 1)
        n = lo + pick % ((k + 1) * f - lo + 1)
        rng = np.random.default_rng(seed)
        S0 = rng.normal(size=(n, k))
        assume(gamma_point(S0, f) is None)
        E, Q, t = place(S0, k + extra, rng)
        flat, placed = delta_star(S0, f), delta_star(E, f)
        assert abs(placed.value - flat.value) <= (
            1e-9 * flat.value + max(flat.gap, placed.gap)
        )
        # aff(E) = t + range(Q): the point has no component off it
        x = placed.point - t
        scale = float(np.max(np.ptp(E, axis=0)))
        assert np.linalg.norm(x - Q @ (Q.T @ x)) <= 1e-12 * scale


class TestTheorem8:
    """Affinely dependent inputs ⇒ δ* = 0 (Theorem 8)."""

    @pytest.mark.parametrize("d,n", [(3, 4), (4, 4), (4, 5), (5, 4)])
    def test_degenerate_zero(self, d, n):
        rng = np.random.default_rng(d * 100 + n)
        # points in a subspace of dimension < n-1: Γ nonempty after
        # dimension reduction
        S = degenerate_inputs(rng, n, d, rank=n - 2)
        res = delta_star(S, 1)
        assert res.value == pytest.approx(0.0, abs=1e-7)

    def test_duplicate_heavy_zero(self):
        S = np.array([[1.0, 2.0, 3.0]] * 3 + [[4.0, 5.0, 6.0]])
        res = delta_star(S, 1)
        assert res.value == 0.0


class TestLpVariants:
    def test_linf_exact_lp(self, rng):
        S = rng.normal(size=(4, 3))
        res = delta_star(S, 1, p=math.inf)
        assert res.gap == 0.0
        assert res.iterations == 0
        np.testing.assert_allclose(
            max(max_subset_distance(S, res.point, res.subsets, math.inf)),
            res.value,
            atol=1e-7,
        )

    def test_l1_exact_lp(self, rng):
        S = rng.normal(size=(4, 3))
        res = delta_star(S, 1, p=1)
        assert res.gap == 0.0
        np.testing.assert_allclose(
            max(max_subset_distance(S, res.point, res.subsets, 1)),
            res.value,
            atol=1e-7,
        )

    def test_norm_ordering_of_delta_star(self, rng):
        """δ*_p is non-increasing in p (dist_p >= dist_q for p <= q),
        the monotonicity behind Theorem 14's ``δ*_p <= δ*_2``."""
        S = rng.normal(size=(4, 3))
        d1 = delta_star(S, 1, p=1).value
        d2 = delta_star(S, 1, p=2).value
        dinf = delta_star(S, 1, p=math.inf).value
        assert dinf <= d2 + 1e-6
        assert d2 <= d1 + 1e-6

    def test_p3_between(self, rng):
        S = rng.normal(size=(4, 3))
        d2 = delta_star(S, 1, p=2).value
        d3 = delta_star(S, 1, p=3).value
        dinf = delta_star(S, 1, p=math.inf).value
        assert dinf - 1e-5 <= d3 <= d2 + 1e-5


class TestOptimality:
    def test_no_better_point_nearby(self, rng):
        """Local optimality probe: random perturbations never beat δ*."""
        S = rng.normal(size=(4, 3))
        res = delta_star(S, 1)
        subsets = res.subsets
        for _ in range(30):
            x = res.point + rng.normal(size=3) * 0.05
            val = max(max_subset_distance(S, x, subsets, 2))
            assert val >= res.value - 1e-7

    def test_no_better_point_global_samples(self, rng):
        S = rng.normal(size=(5, 4))
        res = delta_star(S, 1)
        lo, hi = S.min(axis=0), S.max(axis=0)
        for _ in range(30):
            x = lo + rng.random(4) * (hi - lo)
            val = max(max_subset_distance(S, x, res.subsets, 2))
            assert val >= res.value - 1e-7

    def test_f2_case(self, rng):
        """f=2, n=8, d=3: below (d+1)f=8... n=(d+1)f exactly; just check
        the solver returns a consistent certified answer."""
        S = rng.normal(size=(8, 3))
        res = delta_star(S, 2)
        assert res.value >= 0.0
        assert res.gap <= 1e-6 * max(1.0, res.value) + 1e-9
        assert len(res.subsets) == len(f_subsets(8, 2))
