"""Unit + property tests for L_p norms and Hölder's inequality."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.norms import (
    lp_norm,
    max_edge_length,
    min_edge_length,
    pairwise_lp_distances,
    validate_p,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def vec(min_size=1, max_size=8):
    return arrays(
        dtype=float,
        shape=st.integers(min_size, max_size),
        elements=finite_floats,
    )


class TestValidateP:
    def test_accepts_one(self):
        assert validate_p(1) == 1.0

    def test_accepts_inf(self):
        assert math.isinf(validate_p(math.inf))

    @pytest.mark.parametrize("bad", [0, 0.5, -1, float("nan")])
    def test_rejects_below_one(self, bad):
        with pytest.raises(ValueError):
            validate_p(bad)


class TestLpNorm:
    def test_l2_matches_numpy(self, rng):
        x = rng.normal(size=7)
        assert lp_norm(x, 2) == pytest.approx(np.linalg.norm(x))

    def test_l1_matches_numpy(self, rng):
        x = rng.normal(size=7)
        assert lp_norm(x, 1) == pytest.approx(np.abs(x).sum())

    def test_linf_matches_numpy(self, rng):
        x = rng.normal(size=7)
        assert lp_norm(x, math.inf) == pytest.approx(np.abs(x).max())

    def test_general_p_matches_numpy(self, rng):
        x = rng.normal(size=7)
        for p in (1.5, 3, 4, 7):
            assert lp_norm(x, p) == pytest.approx(
                np.linalg.norm(x, ord=p), rel=1e-12
            )

    def test_zero_vector(self):
        assert lp_norm(np.zeros(5), 3) == 0.0

    def test_large_p_no_overflow(self):
        # naive |x|**p would overflow for big entries and large p
        x = np.array([1e200, 1e200])
        assert np.isfinite(lp_norm(x, 10))

    def test_batched_axis(self, rng):
        X = rng.normal(size=(4, 6))
        got = lp_norm(X, 2, axis=-1)
        want = np.linalg.norm(X, axis=-1)
        np.testing.assert_allclose(got, want)

    @given(vec(), st.sampled_from([1, 1.5, 2, 3, math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, x, p):
        y = np.roll(x, 1)
        assert lp_norm(x + y, p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-9 * (
            1 + lp_norm(x, p) + lp_norm(y, p)
        )

    @given(vec(), st.sampled_from([1, 2, 3, math.inf]), finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_absolute_homogeneity(self, x, p, a):
        assert lp_norm(a * x, p) == pytest.approx(
            abs(a) * lp_norm(x, p), rel=1e-9, abs=1e-6
        )


class TestDistances:
    def test_pairwise_symmetry(self, rng):
        pts = rng.normal(size=(5, 3))
        D = pairwise_lp_distances(pts, 2)
        np.testing.assert_allclose(D, D.T)
        np.testing.assert_allclose(np.diag(D), 0.0)

    def test_pairwise_values(self, rng):
        pts = rng.normal(size=(4, 3))
        D = pairwise_lp_distances(pts, 1)
        for i in range(4):
            for j in range(4):
                assert D[i, j] == pytest.approx(np.abs(pts[i] - pts[j]).sum())

    def test_max_min_edge(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert max_edge_length(pts, 2) == pytest.approx(5.0)
        assert min_edge_length(pts, 2) == pytest.approx(1.0)

    def test_single_point_edges(self):
        pts = np.array([[1.0, 2.0]])
        assert max_edge_length(pts) == 0.0
        assert math.isinf(min_edge_length(pts))

    def test_min_edge_counts_duplicates(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        assert min_edge_length(pts) == 0.0


class TestHolder:
    @given(vec(min_size=1, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_theorem13_inequality(self, x):
        # norm_p <= norm_r <= d^(1/r-1/p) norm_p for r <= p
        for r, p in [(1, 2), (2, 4), (2, math.inf), (1, math.inf), (1.5, 3)]:
            np_, nr = lp_norm(x, p), lp_norm(x, r)
            upper = x.size ** (1.0 / r - 1.0 / p) * np_
            slack = 1e-9 * (1 + upper)
            assert np_ <= nr + slack
            assert nr <= upper + slack

    @given(vec(min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_linf_below_every_lp(self, x):
        # ||x||_inf <= ||x||_p, the inequality the necessity transfers use
        ninf = lp_norm(x, math.inf)
        for p in (1, 1.5, 2, 5):
            assert ninf <= lp_norm(x, p) + 1e-9 * (1 + ninf)
