"""Cross-cutting property-based tests of the paper's geometric invariants.

These are the hypothesis-driven checks of facts that many modules rely on
at once — the "containment lattice" of §5.4 and the δ* bound structure.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import distance_to_hull, in_hull
from repro.geometry.intersections import f_subsets, gamma_point, psi_k_point
from repro.geometry.minimax import delta_star
from repro.geometry.norms import max_edge_length, min_edge_length
from repro.geometry.relaxed import DeltaPHull, KRelaxedHull

seeds = st.integers(0, 10_000)


@given(seeds, st.integers(3, 5))
@settings(max_examples=20, deadline=None)
def test_theorem9_property_random_instances(seed, d):
    """Theorem 9 as a property: for any f=1 instance with n = d+1 inputs,
    δ* < min(min-edge/2, max-edge/(n-2)) over ALL inputs (a fortiori the
    honest-edge bound when the faulty input stretches the edges)."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(d + 1, d))
    val = delta_star(S, 1).value
    bound = min(min_edge_length(S) / 2, max_edge_length(S) / (d - 1))
    assert val < bound + 1e-7


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_delta_star_scale_equivariance(seed):
    """δ*(cS) = c·δ*(S): the relaxation is a length, not a ratio."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(4, 3))
    base = delta_star(S, 1).value
    scaled = delta_star(3.0 * S, 1).value
    # same absolute slack as the translation test below: near-degenerate
    # instances solve to ~1e-8 of each other, not the typical 1e-10 gap.
    assert scaled == pytest.approx(3.0 * base, rel=1e-5, abs=1e-7)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_delta_star_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(4, 3))
    t = rng.normal(size=3) * 10
    # abs tolerance matches the solver's practical certification on
    # translated (worse-conditioned) instances, not its typical 1e-10 gap:
    # hypothesis found seeds where the two solves differ by ~2e-8.
    assert delta_star(S + t, 1).value == pytest.approx(
        delta_star(S, 1).value, rel=1e-5, abs=1e-7
    )


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_gamma_point_deterministic_function_of_multiset(seed):
    """The selection of a point of Γ is a pure function — the property
    that gives the algorithms agreement."""
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(5, 2))
    p1 = gamma_point(Y, 1)
    p2 = gamma_point(Y.copy(), 1)
    if p1 is None:
        assert p2 is None
    else:
        np.testing.assert_allclose(p1, p2, atol=1e-12)


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_gamma_point_membership_certificate(seed):
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(6, 2))
    pt = gamma_point(Y, 1)
    assert pt is not None  # n=6 >= (d+1)f+1=4
    for T in f_subsets(6, 1):
        assert in_hull(Y[list(T)], pt, tol=1e-6)


@given(seeds, st.sampled_from([1, 2]))
@settings(max_examples=10, deadline=None)
def test_psi_k_point_is_valid_when_found(seed, k):
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(5, 3))
    pt = psi_k_point(Y, 1, k)
    if pt is None:
        return
    for T in f_subsets(5, 1):
        assert KRelaxedHull(Y[list(T)], k).contains(pt, tol=1e-6)


@given(seeds, st.floats(0.0, 2.0))
@settings(max_examples=20, deadline=None)
def test_hull_containment_lattice(seed, delta):
    """For any point: membership cascades down the containment lattice
    H(S) ⊆ H_k(S), H(S) ⊆ H_(δ,p)(S), H_(δ,2) ⊆ H_(δ,∞)."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(5, 3))
    x = rng.normal(size=3) * 1.5
    in_hull_flag = in_hull(S, x)
    if in_hull_flag:
        for k in (1, 2, 3):
            assert KRelaxedHull(S, k).contains(x, tol=1e-6)
        assert DeltaPHull(S, delta, 2).contains(x, tol=1e-6)
    if DeltaPHull(S, delta, 2).contains(x):
        assert DeltaPHull(S, delta, math.inf).contains(x, tol=1e-6)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_distance_triangle_via_hull(seed):
    """|dist(x,H) - dist(y,H)| <= ||x - y|| — 1-Lipschitzness of the hull
    distance, which the minimax solver's cuts rely on."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(5, 3))
    x = rng.normal(size=3) * 2
    y = rng.normal(size=3) * 2
    dx = distance_to_hull(S, x, 2).distance
    dy = distance_to_hull(S, y, 2).distance
    assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-7


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_delta_star_never_exceeds_any_input_point_value(seed):
    """δ* ≤ max_T dist(a, H(T)) for every input point a (feasibility of
    trivial candidates) — an upper-bound sanity envelope."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(4, 3))
    res = delta_star(S, 1)
    subsets = f_subsets(4, 1)
    for a in S:
        envelope = max(
            distance_to_hull(S[list(T)], a, 2).distance for T in subsets
        )
        assert res.value <= envelope + 1e-7
