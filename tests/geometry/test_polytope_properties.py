"""Property-based tests for polygon clipping and Γ polytopes."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import in_hull
from repro.geometry.polytope import (
    convex_polygon_clip,
    gamma_polytope,
    intersect_hulls_polytope,
    polygon_vertices,
)

seeds = st.integers(0, 100_000)


def random_polygon(rng, m=6, scale=2.0):
    return polygon_vertices(rng.normal(size=(m, 2)) * scale)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_clip_result_inside_both(seed):
    rng = np.random.default_rng(seed)
    a = random_polygon(rng)
    b = random_polygon(rng)
    out = convex_polygon_clip(a, b)
    for v in out:
        assert in_hull(a, v, tol=1e-6)
        assert in_hull(b, v, tol=1e-6)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_clip_commutative_as_sets(seed):
    rng = np.random.default_rng(seed)
    a = random_polygon(rng)
    b = random_polygon(rng)
    ab = convex_polygon_clip(a, b)
    ba = convex_polygon_clip(b, a)
    assert (ab.shape[0] == 0) == (ba.shape[0] == 0)
    if ab.shape[0] >= 3 and ba.shape[0] >= 3:
        for v in ab:
            assert in_hull(ba, v, tol=1e-5)
        for v in ba:
            assert in_hull(ab, v, tol=1e-5)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_clip_idempotent(seed):
    rng = np.random.default_rng(seed)
    a = random_polygon(rng)
    out = convex_polygon_clip(a, a)
    assert out.shape[0] >= 3
    for v in a:
        assert in_hull(out, v, tol=1e-6)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_intersection_contains_mixture_points(seed):
    """Any Dirichlet point of the intersection is in both hulls."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2)) * 0.7
    P = intersect_hulls_polytope([a, b])
    if P is None:
        return
    for x in rng.dirichlet(np.ones(P.num_vertices), size=5) @ P.vertices:
        assert in_hull(a, x, tol=1e-5)
        assert in_hull(b, x, tol=1e-5)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_gamma_polytope_consistent_with_lp(seed):
    """Polytope emptiness always matches the exact LP verdict."""
    from repro.geometry.intersections import gamma

    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    Y = rng.normal(size=(n, 2))
    P = gamma_polytope(Y, 1)
    assert (P is not None) == gamma(Y, 1)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_gamma_polytope_shrinks_under_input_removal(seed):
    """Γ(S - {a}) ⊆ Γ(S): with one input removed, every size ``n-1-f``
    subset is contained in a size ``n-f`` subset of the full multiset, so
    the certified region can only shrink — the set-level counterpart of
    Lemma 16's δ* growth."""
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(6, 2))
    P_small = gamma_polytope(Y[:-1], 1)
    if P_small is None:
        return
    P_full = gamma_polytope(Y, 1)
    assert P_full is not None  # a nonempty subset region certifies the full one
    for v in P_small.vertices:
        assert P_full.contains(v, tol=1e-5)
