"""Explicit convex polytopes: V-representations of hull intersections.

Convex Hull Consensus (Tseng & Vaidya, PODC 2014 / arXiv 1307.1332 — the
paper's references [16] and [15]) has the processes agree on an entire
*polytope* inside the hull of the honest inputs, rather than a single
point.  The natural output object is the paper's ``Γ(S)`` itself:

    ``Γ(S) = ∩_{T ⊆ S, |T| = n-f} H(T)``

This module computes explicit vertex representations of such
intersections:

* **d = 2** — exact convex polygon clipping (Sutherland–Hodgman against
  each hull's edges), robust and dependency-free;
* **d >= 3** — halfspace intersection via Qhull
  (``scipy.spatial.HalfspaceIntersection``) seeded with a strictly
  interior point found by a Chebyshev-center LP; requires the
  intersection to be full-dimensional (degenerate intersections fall
  back to a point representation via the LP selection).

Vertices are canonicalised (sorted lexicographically, deduplicated) so
that two processes computing the polytope from the same multiset obtain
the *identical* object — the agreement property consensus needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.spatial import ConvexHull as _Qhull
from scipy.spatial import HalfspaceIntersection, QhullError

from .distance import distance_linf, in_hull
from .intersections import f_subsets
from .lp import solve_lp

__all__ = [
    "Polytope",
    "convex_polygon_clip",
    "polygon_vertices",
    "intersect_hulls_polytope",
    "gamma_polytope",
]

_TOL = 1e-9


@dataclass(frozen=True)
class Polytope:
    """A convex polytope by its canonical vertex list (may be a point)."""

    vertices: np.ndarray  # (k, d), canonically ordered

    @property
    def dim_ambient(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    def contains(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        """Membership in the polytope's convex hull."""
        return in_hull(self.vertices, x, tol)

    def is_subset_of_hull(self, points: np.ndarray, tol: float = 1e-7) -> bool:
        """True when every vertex lies in ``H(points)``."""
        return all(
            distance_linf(points, v) <= tol for v in self.vertices
        )

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Random points inside (Dirichlet mixture of vertices)."""
        w = rng.dirichlet(np.ones(self.num_vertices), size=n)
        return w @ self.vertices

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def equals(self, other: "Polytope", tol: float = 1e-6) -> bool:
        """Geometric set-equality (mutual vertex containment)."""
        return (
            self.dim_ambient == other.dim_ambient
            and all(other.contains(v, tol) for v in self.vertices)
            and all(self.contains(v, tol) for v in other.vertices)
        )

    def __repr__(self) -> str:
        return f"Polytope(k={self.num_vertices}, d={self.dim_ambient})"


def _canonical(vertices: np.ndarray, decimals: int = 9) -> np.ndarray:
    """Deduplicate and lexicographically sort vertices (deterministic)."""
    if vertices.size == 0:
        return vertices.reshape(0, vertices.shape[-1] if vertices.ndim > 1 else 0)
    rounded = np.round(vertices, decimals)
    # unique rows, then lexicographic sort by all columns
    uniq = np.unique(rounded, axis=0)
    order = np.lexsort(uniq.T[::-1])
    return uniq[order]


# ---------------------------------------------------------------------------
# 2-D: exact convex polygon clipping
# ---------------------------------------------------------------------------

def polygon_vertices(points: np.ndarray) -> np.ndarray:
    """CCW-ordered hull vertices of a 2-D point set (handles degeneracy:
    returns 1 or 2 vertices for points/segments)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise ValueError("polygon_vertices expects 2-D points")
    uniq = np.unique(np.round(pts, 12), axis=0)
    if uniq.shape[0] == 1:
        return uniq
    if uniq.shape[0] == 2:
        return uniq
    try:
        hull = _Qhull(uniq)
        return uniq[hull.vertices]  # Qhull returns CCW order in 2-D
    except QhullError:
        # collinear: return the two extreme points along the span
        d = uniq - uniq[0]
        t = d @ (uniq[-1] - uniq[0])
        return np.vstack([uniq[int(np.argmin(t))], uniq[int(np.argmax(t))]])


def convex_polygon_clip(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland–Hodgman clipping of convex polygon ``subject`` by convex
    polygon ``clip`` (both CCW vertex arrays).  Returns the (possibly
    empty) intersection's vertices, CCW.

    Degenerate clip regions (points/segments) are handled by membership
    filtering rather than edge clipping.
    """
    subject = np.atleast_2d(np.asarray(subject, dtype=float))
    clip = np.atleast_2d(np.asarray(clip, dtype=float))
    if clip.shape[0] < 3:
        # point or segment: intersection = parts of it inside subject
        keep = [p for p in clip if in_hull(subject, p, tol=_TOL)]
        return np.array(keep) if keep else np.zeros((0, 2))
    if subject.shape[0] < 3:
        keep = [p for p in subject if in_hull(clip, p, tol=_TOL)]
        return np.array(keep) if keep else np.zeros((0, 2))

    output = [tuple(p) for p in subject]
    m = clip.shape[0]
    for i in range(m):
        a, b = clip[i], clip[(i + 1) % m]
        edge = b - a
        if not output:
            break
        inp = output
        output = []

        def side(p: np.ndarray) -> float:
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])

        k = len(inp)
        for j in range(k):
            cur = np.asarray(inp[j])
            nxt = np.asarray(inp[(j + 1) % k])
            s_cur, s_nxt = side(cur), side(nxt)
            if s_cur >= -_TOL:
                output.append(tuple(cur))
                if s_nxt < -_TOL:
                    t = s_cur / (s_cur - s_nxt)
                    output.append(tuple(cur + t * (nxt - cur)))
            elif s_nxt >= -_TOL:
                t = s_cur / (s_cur - s_nxt)
                output.append(tuple(cur + t * (nxt - cur)))
    if not output:
        return np.zeros((0, 2))
    return polygon_vertices(np.array(output))


# ---------------------------------------------------------------------------
# general dimension via halfspaces
# ---------------------------------------------------------------------------

def _hull_halfspaces_matrix(points: np.ndarray) -> Optional[np.ndarray]:
    """Qhull facet inequalities ``[A | b]`` with ``A x + b <= 0`` for a
    full-dimensional hull, else None."""
    try:
        return _Qhull(points).equations
    except QhullError:
        return None


def _chebyshev_center(halfspaces: np.ndarray) -> Optional[tuple[np.ndarray, float]]:
    """Center and radius of the largest inscribed ball of ``Ax + b <= 0``."""
    A = halfspaces[:, :-1]
    b = halfspaces[:, -1]
    d = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    # maximise r  s.t.  A x + r*||A_i|| <= -b
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A, norms[:, None]])
    lb = np.full(d + 1, -np.inf)
    lb[-1] = 0.0
    x = solve_lp(c, sparse.csr_array(A_ub), -b, None, None, lb, np.full(d + 1, np.inf))
    if x is None or x[-1] <= 1e-12:
        return None
    return x[:d], float(x[-1])


def intersect_hulls_polytope(point_sets: Sequence[np.ndarray]) -> Optional[Polytope]:
    """Vertex representation of ``∩_i H(A_i)``, or None when empty.

    2-D inputs use exact polygon clipping.  Higher dimensions require the
    intersection to be full-dimensional for an exact V-representation;
    lower-dimensional intersections degrade to the deterministic
    LP-selected point (a valid, agreed-upon subset — documented
    behaviour, sufficient for consensus outputs).
    """
    sets = [np.atleast_2d(np.asarray(A, dtype=float)) for A in point_sets]
    if not sets:
        raise ValueError("need at least one hull")
    d = sets[0].shape[1]
    if any(A.shape[1] != d for A in sets):
        raise ValueError("dimension mismatch between hulls")

    if d == 1:
        lo = max(A.min() for A in sets)
        hi = min(A.max() for A in sets)
        if lo > hi + _TOL:
            return None
        vs = np.array([[lo]]) if abs(hi - lo) <= _TOL else np.array([[lo], [hi]])
        return Polytope(_canonical(vs))

    if d == 2:
        current = polygon_vertices(sets[0])
        for A in sets[1:]:
            current = convex_polygon_clip(current, polygon_vertices(A))
            if current.shape[0] == 0:
                break
        if current.shape[0] > 0:
            return Polytope(_canonical(current))
        # Clipping can lose measure-zero intersections (a single point or
        # segment, e.g. Γ at exactly the Tverberg bound); settle with the
        # exact LP before declaring emptiness.
        from .intersections import intersection_point

        pt = intersection_point(sets)
        if pt is None:
            return None
        return Polytope(_canonical(pt[None, :]))

    # d >= 3: halfspace intersection
    halfspaces = []
    for A in sets:
        hs = _hull_halfspaces_matrix(A)
        if hs is None:
            halfspaces = None
            break
        halfspaces.append(hs)
    if halfspaces is not None:
        stacked = np.vstack(halfspaces)
        center = _chebyshev_center(stacked)
        if center is not None:
            interior, _r = center
            try:
                hi = HalfspaceIntersection(stacked, interior)
                verts = _canonical(hi.intersections)
                if verts.shape[0] > 0:
                    return Polytope(verts)
            except QhullError:  # pragma: no cover - fallback below
                pass
    # degenerate / not full-dimensional: fall back to the deterministic
    # single-point selection (still a valid common subset).
    from .intersections import intersection_point

    pt = intersection_point(sets)
    if pt is None:
        return None
    return Polytope(_canonical(pt[None, :]))


def gamma_polytope(Y: np.ndarray, f: int) -> Optional[Polytope]:
    """V-representation of ``Γ(Y)`` (None when empty)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    subsets = f_subsets(Y.shape[0], f)
    return intersect_hulls_polytope([Y[list(T)] for T in subsets])
