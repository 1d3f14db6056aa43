"""Tests for the pure decision rules (Step 2 of each synchronous
algorithm) on fixed multisets — no simulator involved."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.algo_sync import algo_decision
from repro.core.exact_bvc import exact_bvc_decision
from repro.core.krelaxed import k_relaxed_decision
from repro.core.scalar import scalar_decision, scalar_decision_vector, trimmed_multiset
from repro.geometry.distance import distance_to_hull, in_hull
from repro.geometry.intersections import f_subsets
from repro.geometry.minimax import max_subset_distance
from repro.geometry.relaxed import KRelaxedHull


class TestScalarDecision:
    def test_trim(self):
        vals = np.array([9.0, 1.0, 5.0, 3.0, 7.0])
        np.testing.assert_allclose(trimmed_multiset(vals, 1), [3.0, 5.0, 7.0])

    def test_trim_too_much(self):
        with pytest.raises(ValueError):
            trimmed_multiset(np.array([1.0, 2.0]), 1)

    def test_midpoint(self):
        assert scalar_decision(np.array([0.0, 2.0, 4.0, 100.0]), 1) == pytest.approx(3.0)

    def test_validity_against_adversarial_extremes(self, rng):
        """With f arbitrary values injected, the decision stays within
        the honest range (scalar validity)."""
        for seed in range(20):
            r = np.random.default_rng(seed)
            honest = r.normal(size=3)
            evil = np.array([1e9]) if seed % 2 else np.array([-1e9])
            vals = np.concatenate([honest, evil])
            dec = scalar_decision(vals, 1)
            assert honest.min() - 1e-12 <= dec <= honest.max() + 1e-12

    def test_vector_coordinatewise(self, rng):
        S = rng.normal(size=(4, 3))
        dec = scalar_decision_vector(S, 1)
        for j in range(3):
            assert dec[j] == pytest.approx(scalar_decision(S[:, j], 1))


class TestExactDecision:
    def test_point_in_gamma(self, rng):
        S = rng.normal(size=(5, 2))  # n=5 >= (d+1)f+1=4
        pt = exact_bvc_decision(S, 1)
        for T in f_subsets(5, 1):
            assert in_hull(S[list(T)], pt, tol=1e-6)

    def test_raises_below_bound(self, rng):
        S = rng.normal(size=(4, 3))  # < (d+1)f+1 = 5
        with pytest.raises(ValueError):
            exact_bvc_decision(S, 1)

    def test_deterministic(self, rng):
        S = rng.normal(size=(5, 2))
        np.testing.assert_allclose(
            exact_bvc_decision(S, 1), exact_bvc_decision(S.copy(), 1)
        )


class TestAlgoDecision:
    def test_returns_delta_and_point(self, rng):
        S = rng.normal(size=(4, 3))  # n=d+1, f=1: δ* > 0 generically
        res = algo_decision(S, 1)
        assert res.value > 0
        # every subset hull is within δ* of the point
        for dist in max_subset_distance(S, res.point, res.subsets, 2):
            assert dist <= res.value + 1e-7

    def test_zero_when_tverberg_applies(self, rng):
        S = rng.normal(size=(5, 2))
        assert algo_decision(S, 1).value == 0.0

    def test_p_inf_variant(self, rng):
        S = rng.normal(size=(4, 3))
        res = algo_decision(S, 1, p=math.inf)
        for T in res.subsets:
            dist = distance_to_hull(S[list(T)], res.point, math.inf).distance
            assert dist <= res.value + 1e-7


class TestKRelaxedDecision:
    def test_k1_is_scalar(self, rng):
        S = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            k_relaxed_decision(S, 1, 1), scalar_decision_vector(S, 1)
        )

    def test_k1_is_1relaxed_valid(self, rng):
        """The coordinate-wise decision is in H_1 of any (n-f)-subset —
        exactly what 1-relaxed validity requires of the worst case."""
        for seed in range(10):
            r = np.random.default_rng(seed)
            S = r.normal(size=(4, 3))
            dec = k_relaxed_decision(S, 1, 1)
            for T in f_subsets(4, 1):
                assert KRelaxedHull(S[list(T)], 1).contains(dec, tol=1e-7)

    def test_k2_uses_exact(self, rng):
        S = rng.normal(size=(5, 2))
        np.testing.assert_allclose(
            k_relaxed_decision(S, 1, 2), exact_bvc_decision(S, 1)
        )

    def test_k2_below_bound_raises(self, rng):
        S = rng.normal(size=(4, 3))
        with pytest.raises(ValueError):
            k_relaxed_decision(S, 1, 2)

    def test_rejects_bad_k(self, rng):
        S = rng.normal(size=(4, 3))
        with pytest.raises(ValueError):
            k_relaxed_decision(S, 1, 0)
