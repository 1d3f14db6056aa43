"""Intersections of (relaxed) hulls: the paper's ``Γ`` and ``Ψ`` operators.

For a multiset ``Y`` with ``|Y| >= f`` the paper defines (§3):

.. math::

    Γ(Y) = \\bigcap_{T ⊆ Y, |T| = |Y| - f} H(T)

— the set of points guaranteed to be in the convex hull of the non-faulty
inputs *whichever* ``f`` inputs are faulty.  Exact BVC decides a point of
``Γ``; Tverberg's theorem makes it nonempty when ``|Y| >= (d+1)f + 1``.

The k-relaxed analogue from the proof of Theorem 3:

.. math::

    Ψ(Y) = \\bigcap_{T} H_k(T) = \\bigcap_{D ∈ D_k, T} g_D^{-1}(H(g_D(T)))

and the (δ,p)-relaxed analogue used by algorithm ALGO (§9):

.. math::

    Γ_{(δ,p)}(S) = \\bigcap_{T ⊆ S, |T| = |S| - f} H_{(δ,p)}(T).

All the emptiness questions are convex feasibility problems.  For hull and
cylinder intersections (and for ``p ∈ {1, ∞}``) they are *linear* programs,
solved exactly with HiGHS; ``p = 2`` feasibility is delegated to the
min-max solver in :mod:`repro.geometry.minimax`.

Deterministic point selection — the paper's algorithms require every
non-faulty process to "deterministically choose a point" from these sets —
is one LP, :meth:`HullSystem.central_point`: the point whose smallest
convex weight in any hull is largest, inside every hull wherever the set
has room, not on its boundary.  Its bytes are a pure function of the input
rows *in their order*, and every caller that needs agreement passes them
canonically: the agreed multiset in commander order (exact BVC, ALGO), a
claim's references sorted by sender (Relaxed Verified Averaging).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .cache import cached_kernel
from .lp import csr_rows, solve_lp
from .norms import validate_p
from .projection import enumerate_coordinate_subsets, project_multiset
from .tolerance import near_zero, norm_order_is

__all__ = [
    "HullSystem",
    "f_subsets",
    "intersect_hulls",
    "intersection_point",
    "gamma",
    "gamma_point",
    "psi_k",
    "psi_k_point",
    "gamma_delta_p",
    "gamma_delta_p_point",
]

PNorm = Union[float, int]


class HullSystem:
    """Incrementally-built LP encoding ``x ∈ ∩_i H_{(δ_i, p_i)}(A_i)``.

    Variables are laid out as ``[x (d), block_1, block_2, ...]`` where each
    block holds the convex weights (plus L1 slack variables when needed)
    for one hull constraint.  ``δ_i = 0`` encodes plain hull membership;
    δ > 0 with p ∈ {1, inf} encodes fattened membership.  Projection
    constraints (cylinders) restrict only a coordinate subset of ``x``.

    A row touches one ``x`` coordinate and one block, so rows are recorded
    sparse — ``(cols, vals, rhs)``, columns ascending — and the matrix
    handed to the solver is never dense (:func:`repro.geometry.lp.csr_rows`
    assembles them, leaving exact zeros out).
    """

    def __init__(self, d: int):
        self.d = d
        self.n_extra = 0
        self.rows_eq: list[tuple[np.ndarray, np.ndarray, float]] = []
        self.rows_ub: list[tuple[np.ndarray, np.ndarray, float]] = []
        self.weights: list[tuple[int, int]] = []  # (offset, size) of each λ

    # -- variable bookkeeping ------------------------------------------------
    def _alloc(self, size: int) -> int:
        off = self.d + self.n_extra
        self.n_extra += size
        return off

    def add_hull_constraint(
        self,
        pts: np.ndarray,
        coords: Optional[Sequence[int]] = None,
        delta: float = 0.0,
        p: PNorm = math.inf,
    ) -> None:
        """Require ``dist_p(x[coords], H(pts)) <= delta``.

        ``pts`` is ``(m, k)`` with ``k = len(coords)`` (``coords`` defaults
        to all coordinates).  ``delta = 0`` gives exact membership; for
        ``delta > 0`` only ``p ∈ {1, inf}`` are linear.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, k = pts.shape
        if coords is None:
            coords = list(range(self.d))
        coords = list(coords)
        if len(coords) != k:
            raise ValueError(f"{len(coords)} coords vs point dim {k}")
        if delta < 0:
            raise ValueError("delta must be >= 0")
        p = validate_p(p)
        fattened = not near_zero(delta)
        if fattened and not (norm_order_is(p, 1.0) or math.isinf(p)):
            raise ValueError("linear encoding needs p in {1, inf} when delta > 0")

        lam_off = self._alloc(m)
        self.weights.append((lam_off, m))
        use_l1_slack = fattened and norm_order_is(p, 1.0)
        s_off = self._alloc(k) if use_l1_slack else None
        lam = np.arange(lam_off, lam_off + m)

        # sum(lam) == 1
        self.rows_eq.append((lam, np.ones(m), 1.0))

        # row j: resid_j = x[coords[j]] - pts[:, j] @ lam
        head = np.concatenate(([0], lam))
        resid = np.column_stack([np.ones(k), -pts.T])
        for j in range(k):
            cols, vals = head.copy(), resid[j]
            cols[0] = coords[j]
            if not fattened:
                self.rows_eq.append((cols, vals, 0.0))
            elif math.isinf(p):
                # |resid_j| <= delta componentwise
                self.rows_ub.append((cols, vals, delta))
                self.rows_ub.append((cols, -vals, delta))
            else:  # p == 1 with slack s: |resid_j| <= s_j, sum s <= delta
                cols = np.append(cols, s_off + j)
                self.rows_ub.append((cols, np.append(vals, -1.0), 0.0))
                self.rows_ub.append((cols, np.append(-vals, -1.0), 0.0))
        if use_l1_slack:
            self.rows_ub.append((np.arange(s_off, s_off + k), np.ones(k), delta))

    # -- assembly & solving ---------------------------------------------------
    def _assemble(self, more_ub: Sequence[tuple] = (), n_more: int = 0) -> tuple:
        """What :func:`solve_lp` takes after ``c``: one CSR block per side
        (``more_ub`` rows after the recorded ones) and the bounds — ``x``
        free, every block variable and ``n_more`` further ones ``>= 0``."""
        n = self.d + self.n_extra + n_more
        lb = np.zeros(n)
        lb[: self.d] = -np.inf
        return (
            *csr_rows([*self.rows_ub, *more_ub], n),
            *csr_rows(self.rows_eq, n),
            lb,
            np.full(n, np.inf),
        )

    def solve(self, objective: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Solve the LP; returns the full variable vector or None if infeasible."""
        c = np.zeros(self.d + self.n_extra)
        if objective is not None:
            c[: objective.size] = objective
        return solve_lp(c, *self._assemble())

    def feasible(self) -> bool:
        return self.solve() is not None

    def minimize_pair_linf(self, d: int) -> Optional[tuple[float, np.ndarray]]:
        """Minimise ``||x[:d] - x[d:2d]||_inf`` over the feasible set.

        Used by the impossibility demonstrations (Appendices B and C): the
        system's first ``2d`` variables encode two candidate outputs
        ``(v1, v2)`` under different constraint sets, and the minimum
        achievable L_inf separation lower-bounds the disagreement any
        algorithm is forced into.  Returns ``(min_separation, full_x)`` or
        None when the system is infeasible.
        """
        if self.d < 2 * d:
            raise ValueError(f"system has {self.d} point vars, need >= {2 * d}")
        n = self.d + self.n_extra
        # one more column for t, and |v1_j - v2_j| <= t after the base rows
        pair_rows = []
        for j in range(d):
            cols = np.array([j, d + j, n])
            pair_rows.append((cols, np.array([1.0, -1.0, -1.0]), 0.0))
            pair_rows.append((cols, np.array([-1.0, 1.0, -1.0]), 0.0))
        c = np.zeros(n + 1)
        c[n] = 1.0
        x = solve_lp(c, *self._assemble(pair_rows, 1))
        if x is None:
            return None
        return float(x[n]), x[: self.d]

    def central_point(self) -> Optional[np.ndarray]:
        """The ``x`` whose smallest hull weight is largest, or None if empty.

        One LP: maximise ``t`` s.t. ``λ >= t`` for every convex weight.  With
        ``λ = μ + t·1``, ``μ >= 0``, that is one more column — each row's sum
        over the weight columns — and no more rows; ``t <= 1`` as weights sum
        to 1.  At ``t* > 0`` the point is inside every hull; at ``t* = 0`` it
        is the vertex the solver ends on.  A pure function of the rows, built
        on a copy of them: the system is not changed.
        """
        n = self.d + self.n_extra
        A_ub, b_ub, A_eq, b_eq, lb, ub = self._assemble()
        weight = np.zeros(n)
        for off, size in self.weights:
            weight[off : off + size] = 1.0
        A_ub, A_eq = (
            sparse.hstack([A, sparse.csr_array((A @ weight)[:, None])], format="csr")
            for A in (A_ub, A_eq)
        )
        c = np.zeros(n + 1)
        c[n] = -1.0
        x = solve_lp(c, A_ub, b_ub, A_eq, b_eq, np.append(lb, 0.0), np.append(ub, 1.0))
        return None if x is None else x[: self.d]


# ---------------------------------------------------------------------------
# subset enumeration
# ---------------------------------------------------------------------------

def f_subsets(n: int, f: int) -> list[tuple[int, ...]]:
    """Index tuples of every size ``n - f`` subset of ``range(n)``.

    These index the multisets ``T ⊆ Y`` with ``|T| = |Y| - f`` from the
    paper's ``Γ`` definition.
    """
    if f < 0 or f > n:
        raise ValueError(f"need 0 <= f <= n, got n={n}, f={f}")
    return list(combinations(range(n), n - f))


# ---------------------------------------------------------------------------
# plain hull intersections
# ---------------------------------------------------------------------------

def intersect_hulls(point_sets: Iterable[np.ndarray]) -> bool:
    """True iff ``∩_i H(A_i)`` is nonempty (joint LP feasibility)."""
    return intersection_point(point_sets) is not None


@cached_kernel("intersection_point")
def intersection_point(point_sets: Iterable[np.ndarray]) -> Optional[np.ndarray]:
    """A deterministic point of ``∩_i H(A_i)``, or None when empty.

    Memoised per process under canonical keys (only when ``point_sets``
    is a concrete list/tuple of arrays; generators bypass the cache).
    """
    sets = [np.atleast_2d(np.asarray(A, dtype=float)) for A in point_sets]
    if not sets:
        raise ValueError("need at least one hull")
    d = sets[0].shape[1]
    if any(A.shape[1] != d for A in sets):
        raise ValueError("all hulls must share the ambient dimension")
    sys_ = HullSystem(d)
    for A in sets:
        sys_.add_hull_constraint(A)
    return sys_.central_point()


def gamma(Y: np.ndarray, f: int) -> bool:
    """Nonemptiness of ``Γ(Y) = ∩_{|T| = |Y|-f} H(T)``."""
    return gamma_point(Y, f) is not None


@cached_kernel("gamma_point")
def gamma_point(Y: np.ndarray, f: int) -> Optional[np.ndarray]:
    """Deterministic point of ``Γ(Y)``, or None when ``Γ(Y)`` is empty.

    Memoised per process (see :mod:`repro.geometry.cache`): every correct
    process of a run solves the same ``Γ(S)`` instance, so all but the
    first solve are lookups.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[0]
    sys_ = HullSystem(Y.shape[1])
    for T in f_subsets(n, f):
        sys_.add_hull_constraint(Y[list(T)])
    return sys_.central_point()


# ---------------------------------------------------------------------------
# k-relaxed: Ψ(Y)
# ---------------------------------------------------------------------------

def psi_k(Y: np.ndarray, f: int, k: int) -> bool:
    """Nonemptiness of ``Ψ(Y) = ∩_T H_k(T)`` (proof of Theorem 3)."""
    return psi_k_point(Y, f, k) is not None


@cached_kernel("psi_k_point")
def psi_k_point(Y: np.ndarray, f: int, k: int) -> Optional[np.ndarray]:
    """Deterministic point of ``Ψ(Y)``, or None when empty (memoised).

    Encodes every (D, T) cylinder constraint into one joint LP:
    for each ``D ∈ D_k`` and each size ``|Y|-f`` subset ``T``,
    ``g_D(x) ∈ H(g_D(T))``.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, d = Y.shape
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d={d}, got k={k}")
    sys_ = HullSystem(d)
    subsets = f_subsets(n, f)
    for D in enumerate_coordinate_subsets(d, k):
        for T in subsets:
            sys_.add_hull_constraint(
                project_multiset(Y[list(T)], D), coords=list(D)
            )
    return sys_.central_point()


# ---------------------------------------------------------------------------
# (δ,p)-relaxed: Γ_{(δ,p)}(S)
# ---------------------------------------------------------------------------

def gamma_delta_p(S: np.ndarray, f: int, delta: float, p: PNorm) -> bool:
    """Nonemptiness of ``Γ_{(δ,p)}(S) = ∩_T H_{(δ,p)}(T)``."""
    return gamma_delta_p_point(S, f, delta, p) is not None


@cached_kernel("gamma_delta_p_point")
def gamma_delta_p_point(
    S: np.ndarray, f: int, delta: float, p: PNorm
) -> Optional[np.ndarray]:
    """Deterministic point of ``Γ_{(δ,p)}(S)``, or None when empty (memoised).

    For ``p ∈ {1, inf}`` (and for ``δ = 0`` at any ``p``) this is exact via
    LP.  For ``p = 2`` and other finite ``p`` the min-max optimiser supplies
    the point when feasible.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n, d = S.shape
    p = validate_p(p)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if near_zero(delta):
        return gamma_point(S, f)
    if norm_order_is(p, 1.0) or math.isinf(p):
        sys_ = HullSystem(d)
        for T in f_subsets(n, f):
            sys_.add_hull_constraint(S[list(T)], delta=delta, p=p)
        return sys_.central_point()
    from .minimax import delta_star

    result = delta_star(S, f, p=p)
    if result.value <= delta + 1e-9:
        return result.point
    return None
