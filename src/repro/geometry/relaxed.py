"""The paper's two relaxed convex hulls: ``H_k(S)`` and ``H_{(δ,p)}(S)``.

Definition 6 (k-relaxed hull):

.. math::

    H_k(S) = \\bigcap_{D \\in D_k} g_D^{-1}\\big(H(g_D(S))\\big)

i.e. a point is in ``H_k(S)`` iff *every* of its k-coordinate projections is
in the hull of the correspondingly projected inputs.

Definition 9 ((δ,p)-relaxed hull):

.. math::

    H_{(δ,p)}(S) = \\{ u : \\mathrm{dist}_p(u, H(S)) \\le δ \\}

Both are represented as membership/distance objects (they are generally not
polytopes we want vertex representations of).  The containment lattice of
Lemmas 1 and 6 — ``H_i ⊆ H_j`` for ``i ≥ j`` and ``H_{(δ',p)} ⊆ H_{(δ,p)}``
for ``δ' ≤ δ`` — is exercised by the property tests.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .distance import distance_to_hull
from .norms import validate_p
from .projection import Cylinder, enumerate_coordinate_subsets, project_multiset

__all__ = ["KRelaxedHull", "DeltaPHull"]

PNorm = Union[float, int]


class KRelaxedHull:
    """``H_k(S)``: the k-relaxed convex hull of a point multiset ``S``.

    Parameters
    ----------
    S:
        ``(m, d)`` multiset of points.
    k:
        Projection size, ``1 <= k <= d``.  ``k = d`` recovers the ordinary
        convex hull; ``k = 1`` is the coordinate-wise bounding box.
    """

    def __init__(self, S: np.ndarray, k: int):
        pts = np.atleast_2d(np.asarray(S, dtype=float))
        m, d = pts.shape
        if not 1 <= k <= d:
            raise ValueError(f"need 1 <= k <= d={d}, got k={k}")
        self.S = pts
        self.k = int(k)
        self.d = d
        self._cylinders: list[Cylinder] = [
            Cylinder(d, D, project_multiset(pts, D))
            for D in enumerate_coordinate_subsets(d, k)
        ]

    @property
    def cylinders(self) -> Sequence[Cylinder]:
        """The cylinder sets whose intersection is ``H_k(S)``."""
        return tuple(self._cylinders)

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        """Membership: every D-projection of ``u`` is in the projected hull."""
        return all(c.contains(u, tol) for c in self._cylinders)

    def violation(self, u: np.ndarray, p: PNorm = 2) -> float:
        """Largest projection-hull distance over all ``D in D_k``.

        Zero iff ``u`` is in ``H_k(S)``; a quantitative infeasibility
        certificate used by the lower-bound demonstrations.
        """
        return max(c.distance(u, p) for c in self._cylinders)

    def __repr__(self) -> str:
        return f"KRelaxedHull(m={self.S.shape[0]}, d={self.d}, k={self.k})"


class DeltaPHull:
    """``H_{(δ,p)}(S)``: the δ-fattened (under L_p) convex hull of ``S``."""

    def __init__(self, S: np.ndarray, delta: float, p: PNorm = 2):
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        self.p = validate_p(p)
        self.delta = float(delta)
        pts = np.asarray(S, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError(f"need a nonempty (m, d) point array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("hull points must be finite")
        #: The generating multiset.
        self.S = pts

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        """Membership: ``dist_p(u, H(S)) <= delta`` (within ``tol``)."""
        return self.distance_to_core(u) <= self.delta + tol

    def distance_to_core(self, u: np.ndarray) -> float:
        """``dist_p(u, H(S))`` — distance to the *unrelaxed* hull."""
        return distance_to_hull(self.S, u, self.p).distance

    def violation(self, u: np.ndarray) -> float:
        """``max(0, dist_p(u, H(S)) - delta)``; zero iff ``u`` is a member."""
        return max(0.0, self.distance_to_core(u) - self.delta)

    def __repr__(self) -> str:
        return (
            f"DeltaPHull(m={self.S.shape[0]}, d={self.S.shape[1]}, "
            f"delta={self.delta:.6g}, p={self.p})"
        )
