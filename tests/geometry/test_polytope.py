"""Tests for explicit polytope intersections (V-representations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.distance import in_hull
from repro.geometry.intersections import f_subsets, gamma_point
from repro.geometry.polytope import (
    Polytope,
    convex_polygon_clip,
    gamma_polytope,
    intersect_hulls_polytope,
    polygon_vertices,
)

SQ = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])


class TestPolygonVertices:
    def test_square(self):
        vs = polygon_vertices(np.vstack([SQ, [[1.0, 1.0]]]))
        assert vs.shape == (4, 2)

    def test_point(self):
        vs = polygon_vertices(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert vs.shape == (1, 2)

    def test_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        vs = polygon_vertices(pts)
        assert vs.shape == (2, 2)
        assert {tuple(v) for v in vs.tolist()} == {(0.0, 0.0), (2.0, 2.0)}

    def test_wrong_dim(self):
        with pytest.raises(ValueError):
            polygon_vertices(np.zeros((3, 3)))


class TestPolygonClip:
    def test_offset_squares(self):
        out = convex_polygon_clip(SQ, SQ + 1.0)
        assert out.shape[0] == 4
        want = {(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)}
        assert {tuple(np.round(v, 9)) for v in out.tolist()} == want

    def test_contained(self):
        inner = SQ * 0.25 + 0.5
        out = convex_polygon_clip(SQ, inner)
        assert {tuple(v) for v in np.round(out, 9).tolist()} == {
            tuple(v) for v in np.round(polygon_vertices(inner), 9).tolist()
        }

    def test_disjoint_empty(self):
        assert convex_polygon_clip(SQ, SQ + 10.0).shape[0] == 0

    def test_triangle_square(self):
        tri = np.array([[1.0, -1.0], [3.0, 1.0], [1.0, 3.0]])
        out = convex_polygon_clip(SQ, polygon_vertices(tri))
        # intersection is nonempty and inside both
        assert out.shape[0] >= 3
        for v in out:
            assert in_hull(SQ, v, tol=1e-7)
            assert in_hull(tri, v, tol=1e-7)

    def test_point_clip(self):
        pt = np.array([[1.0, 1.0]])
        out = convex_polygon_clip(SQ, pt)
        assert out.shape == (1, 2)
        out2 = convex_polygon_clip(SQ, np.array([[5.0, 5.0]]))
        assert out2.shape[0] == 0


class TestIntersectHullsPolytope:
    def test_1d(self):
        a = np.array([[0.0], [3.0]])
        b = np.array([[2.0], [5.0]])
        P = intersect_hulls_polytope([a, b])
        assert {tuple(v) for v in P.vertices.tolist()} == {(2.0,), (3.0,)}

    def test_1d_disjoint(self):
        assert intersect_hulls_polytope([np.array([[0.0], [1.0]]),
                                         np.array([[2.0], [3.0]])]) is None

    def test_2d_matches_lp_feasibility(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            a = r.normal(size=(5, 2))
            b = r.normal(size=(5, 2))
            from repro.geometry.intersections import intersect_hulls

            P = intersect_hulls_polytope([a, b])
            assert (P is not None) == intersect_hulls([a, b])

    def test_3d_full_dimensional(self, rng):
        cube = np.array(
            [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)],
            dtype=float,
        )
        P = intersect_hulls_polytope([cube, cube + 1.0])
        assert P is not None
        # the intersection is the unit cube [1,2]^3: volume corners
        assert P.num_vertices == 8
        assert P.contains([1.5, 1.5, 1.5])
        assert not P.contains([0.5, 0.5, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            intersect_hulls_polytope([np.zeros((2, 2)), np.zeros((2, 3))])

    def test_empty_list(self):
        with pytest.raises(ValueError):
            intersect_hulls_polytope([])


class TestGammaPolytope:
    def test_contains_gamma_point(self, rng):
        Y = rng.normal(size=(6, 2))
        P = gamma_polytope(Y, 1)
        pt = gamma_point(Y, 1)
        assert (P is None) == (pt is None)
        if P is not None:
            assert P.contains(pt, tol=1e-5)

    def test_subset_of_every_subset_hull(self, rng):
        Y = rng.normal(size=(5, 2))
        P = gamma_polytope(Y, 1)
        assert P is not None
        for T in f_subsets(5, 1):
            assert P.is_subset_of_hull(Y[list(T)])

    def test_empty_below_bound(self, rng):
        Y = rng.normal(size=(4, 3))  # < (d+1)f+1
        assert gamma_polytope(Y, 1) is None

    def test_3d_gamma(self, rng):
        Y = rng.normal(size=(7, 3))
        P = gamma_polytope(Y, 1)
        assert P is not None
        for T in f_subsets(7, 1):
            assert P.is_subset_of_hull(Y[list(T)], tol=1e-6)

    def test_canonical_determinism(self, rng):
        Y = rng.normal(size=(5, 2))
        P1 = gamma_polytope(Y, 1)
        P2 = gamma_polytope(Y.copy(), 1)
        np.testing.assert_array_equal(P1.vertices, P2.vertices)


class TestPolytopeObject:
    def test_sample_inside(self, rng):
        P = Polytope(SQ)
        for x in rng.dirichlet(np.ones(P.num_vertices), size=5) @ P.vertices:
            assert P.contains(x)

    def test_equals(self):
        P1 = Polytope(SQ)
        P2 = Polytope(np.vstack([SQ[::-1], [[1.0, 1.0]]]))
        assert P1.equals(P2)
        assert not P1.equals(Polytope(SQ * 2))

    def test_centroid(self):
        np.testing.assert_allclose(Polytope(SQ).centroid(), [1.0, 1.0])
