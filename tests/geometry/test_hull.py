"""Tests for the affine-hull reduction the geometry kernels solve in."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import distance_to_hull, in_hull
from repro.geometry.hull import affine_basis
from repro.geometry.norms import max_edge_length, min_edge_length

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def affine_dimension(pts: np.ndarray) -> int:
    return affine_basis(pts)[1].shape[0]


class TestAffine:
    def test_full_dim(self, rng):
        pts = rng.normal(size=(5, 3))
        assert affine_dimension(pts) == 3

    def test_single_point(self):
        assert affine_dimension(np.array([[1.0, 2.0, 3.0]])) == 0

    def test_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        assert affine_dimension(pts) == 1

    def test_planar_in_3d(self, rng):
        base = rng.normal(size=(2, 3))
        coeff = rng.normal(size=(6, 2))
        pts = np.array([1.0, 2.0, 3.0]) + coeff @ base
        assert affine_dimension(pts) == 2

    def test_basis_reconstructs(self, rng):
        pts = rng.normal(size=(4, 5))
        origin, basis = affine_basis(pts)
        for p in pts:
            coords = basis @ (p - origin)
            np.testing.assert_allclose(origin + coords @ basis, p, atol=1e-9)


class TestContainmentGeometry:
    def test_contains_centroid(self, rng):
        pts = rng.normal(size=(6, 3))
        assert in_hull(pts, pts.mean(axis=0))

    def test_distance_and_project(self):
        proj = distance_to_hull(SQUARE, [2.0, 0.5])
        assert proj.distance == pytest.approx(1.0)
        np.testing.assert_allclose(proj.point, [1.0, 0.5], atol=1e-8)

    def test_max_min_edge(self):
        assert max_edge_length(SQUARE) == pytest.approx(np.sqrt(2))
        assert min_edge_length(SQUARE) == pytest.approx(1.0)

    def test_reduced_points_isometric(self, rng):
        """The affine reduction preserves pairwise distances (the paper's
        Theorem 8 / Case II projection argument)."""
        base = rng.normal(size=(2, 5))
        pts = rng.normal(size=(4, 2)) @ base + rng.normal(size=5)
        origin, basis = affine_basis(pts)
        red = (pts - origin) @ basis.T
        assert red.shape[1] == 2
        for i in range(4):
            for j in range(4):
                assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(
                    np.linalg.norm(red[i] - red[j]), abs=1e-9
                )

    def test_lift_inverts_reduction(self, rng):
        pts = rng.normal(size=(4, 3))
        origin, basis = affine_basis(pts)
        red = (pts - origin) @ basis.T
        np.testing.assert_allclose(origin + red @ basis, pts, atol=1e-9)


@given(st.integers(0, 100_000), st.integers(2, 5), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_affine_dim_never_exceeds_limits(seed, d, m):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, d))
    k = affine_dimension(pts)
    assert 0 <= k <= min(d, m - 1)
