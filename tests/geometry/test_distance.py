"""Tests for point-to-hull distances under L_p norms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import (
    distance_linf,
    distance_to_hull,
    in_hull,
    nearest_point_l2,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestNearestPointL2:
    def test_interior_point(self):
        proj = nearest_point_l2(UNIT_SQUARE, np.array([0.5, 0.5]))
        assert proj.distance == pytest.approx(0.0, abs=1e-9)

    def test_outside_axis(self):
        proj = nearest_point_l2(UNIT_SQUARE, np.array([2.0, 0.5]))
        assert proj.distance == pytest.approx(1.0)
        np.testing.assert_allclose(proj.point, [1.0, 0.5], atol=1e-8)

    def test_outside_corner(self):
        proj = nearest_point_l2(UNIT_SQUARE, np.array([2.0, 2.0]))
        assert proj.distance == pytest.approx(math.sqrt(2))
        np.testing.assert_allclose(proj.point, [1.0, 1.0], atol=1e-8)

    def test_vertex_exact_hit(self):
        proj = nearest_point_l2(UNIT_SQUARE, np.array([1.0, 1.0]))
        assert proj.distance == 0.0

    def test_single_point_hull(self):
        proj = nearest_point_l2(np.array([[1.0, 2.0]]), np.array([4.0, 6.0]))
        assert proj.distance == pytest.approx(5.0)

    def test_segment_projection(self):
        seg = np.array([[0.0, 0.0], [2.0, 0.0]])
        proj = nearest_point_l2(seg, np.array([1.0, 3.0]))
        assert proj.distance == pytest.approx(3.0)
        np.testing.assert_allclose(proj.point, [1.0, 0.0], atol=1e-8)

    def test_weights_reconstruct_point(self, rng):
        pts = rng.normal(size=(6, 4))
        x = rng.normal(size=4) * 3
        proj = nearest_point_l2(pts, x)
        np.testing.assert_allclose(pts.T @ proj.weights, proj.point, atol=1e-8)
        assert proj.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(proj.weights >= -1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nearest_point_l2(UNIT_SQUARE, np.zeros(3))

    def test_empty_hull_rejected(self):
        with pytest.raises(ValueError):
            nearest_point_l2(np.zeros((0, 2)), np.zeros(2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_linf_zero_inside(self, seed):
        """Points sampled inside the hull have (near) zero distance."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(5, 3))
        w = rng.dirichlet(np.ones(5))
        x = pts.T @ w
        assert nearest_point_l2(pts, x).distance < 1e-7

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_projection_is_optimal_vs_samples(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(5, 3))
        x = rng.normal(size=3) * 4
        proj = nearest_point_l2(pts, x)
        for _ in range(30):
            w = rng.dirichlet(np.ones(5))
            y = pts.T @ w
            assert proj.distance <= np.linalg.norm(x - y) + 1e-8


class TestLpDistances:
    def test_l1_square(self):
        # outside the unit square diagonally: L1 distance adds up
        assert distance_to_hull(UNIT_SQUARE, [2.0, 2.0], 1).distance == pytest.approx(2.0)

    def test_linf_square(self):
        assert distance_linf(UNIT_SQUARE, [2.0, 3.0]) == pytest.approx(2.0)

    def test_inside_all_norms_zero(self, rng):
        pts = rng.normal(size=(6, 3))
        w = rng.dirichlet(np.ones(6))
        x = pts.T @ w
        for p in (1, 2, 3, math.inf):
            assert distance_to_hull(pts, x, p).distance < 1e-7

    def test_norm_ordering(self, rng):
        """dist_inf <= dist_2 <= dist_1 (pointwise norm ordering carries
        over to hull distances)."""
        pts = rng.normal(size=(5, 4))
        x = rng.normal(size=4) * 5
        d1 = distance_to_hull(pts, x, 1).distance
        d2 = distance_to_hull(pts, x, 2).distance
        dinf = distance_to_hull(pts, x, math.inf).distance
        assert dinf <= d2 + 1e-8
        assert d2 <= d1 + 1e-8

    def test_general_p_between(self, rng):
        pts = rng.normal(size=(5, 4))
        x = rng.normal(size=4) * 5
        d2 = distance_to_hull(pts, x, 2).distance
        d3 = distance_to_hull(pts, x, 3).distance
        dinf = distance_to_hull(pts, x, math.inf).distance
        assert dinf - 1e-7 <= d3 <= d2 + 1e-7

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            distance_to_hull(UNIT_SQUARE, [0.0, 0.0], 0.5)

    def test_single_point_lp(self):
        pt = np.array([[1.0, 1.0]])
        assert distance_to_hull(pt, [2.0, 3.0], 1).distance == pytest.approx(3.0)
        assert distance_linf(pt, [2.0, 3.0]) == pytest.approx(2.0)


class TestMembership:
    def test_in_hull_true(self):
        assert in_hull(UNIT_SQUARE, [0.25, 0.75])

    def test_in_hull_boundary(self):
        assert in_hull(UNIT_SQUARE, [0.0, 0.5])

    def test_in_hull_false(self):
        assert not in_hull(UNIT_SQUARE, [1.5, 0.5])

    def test_weights_valid(self):
        w = distance_to_hull(UNIT_SQUARE, [0.5, 0.5], math.inf).weights
        np.testing.assert_allclose(UNIT_SQUARE.T @ w, [0.5, 0.5], atol=1e-7)

    def test_degenerate_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert in_hull(pts, [1.5, 1.5])
        assert not in_hull(pts, [1.0, 1.2])
