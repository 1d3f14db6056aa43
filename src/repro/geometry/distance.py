"""Point-to-convex-hull distances under L_p norms.

Everything in the paper that touches a hull reduces to one primitive:

    ``dist_p(x, H(S)) = min { ||x - y||_p : y in H(S) }``

where ``H(S)`` is the convex hull of a finite multiset ``S`` of points in
``R^d``.  Parameterising ``y = S.T @ lam`` with ``lam`` on the probability
simplex turns this into a convex program over ``lam``:

* **p = 2** — the minimum-norm point of the hull translated by ``-x``,
  found exactly by Wolfe's finite active-set algorithm (Wolfe 1976): a small
  bordered linear solve per support change.  This is the hot path (the
  minimax solver calls it thousands of times) so it is pure NumPy.
* **p = 1 and p = inf** — linear programs, solved exactly with HiGHS
  (through :func:`repro.geometry.lp.solve_lp`).
* **general p** — a smooth convex objective ``sum |r_i|^p`` over the simplex,
  solved with SLSQP warm-started from the L2 projection.

Membership (``x in H(S)``) is the special case ``dist_inf(x, H(S)) <= tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag
from scipy.optimize import minimize

from ..obs import metrics as _obs
from .lp import solve_lp
from .norms import lp_norm, validate_p
from .tolerance import norm_order_is

__all__ = [
    "HullProjection",
    "nearest_point_l2",
    "distance_to_hull",
    "distance_linf",
    "max_distance_linf",
    "in_hull",
]

PNorm = Union[float, int]
#: ``(points, x)`` pairs: hull-distance questions answered by one LP.
Blocks = Sequence[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class HullProjection:
    """Result of projecting a point onto a convex hull.

    Attributes
    ----------
    point:
        The nearest point of the hull (under the requested norm).
    distance:
        ``||x - point||_p``.
    weights:
        Convex-combination weights ``lam`` with ``S.T @ lam == point``.
    """

    point: np.ndarray
    distance: float
    weights: np.ndarray


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError(f"points must be a (m, d) array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("convex hull of an empty point set is undefined")
    return pts


def _wolfe_min_norm(
    P: np.ndarray, tol: float, max_iter: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Wolfe's minimum-norm-point algorithm over ``conv(rows of P)``.

    Returns ``(y, lam)`` with ``y = P.T @ lam`` the (near-)exact minimum
    norm point.  Finite, exact up to linear-algebra precision, and fast
    for the small point counts (m <= ~30) the consensus layer uses —
    unlike first-order methods it has no slow convergence tail.
    """
    m = P.shape[0]
    norms2 = np.einsum("ij,ij->i", P, P)
    scale = max(1.0, float(norms2.max()))
    j0 = int(np.argmin(norms2))
    support = [j0]
    lam_s = np.array([1.0])

    for _ in range(max_iter):
        y = lam_s @ P[support]
        # optimality: min_j <y, p_j>  >=  <y, y> - tol
        dots = P @ y
        j = int(np.argmin(dots))
        yy = float(y @ y)
        if dots[j] >= yy - tol * scale or j in support:
            # optimal, or no progress possible: accept the current point
            break
        last_support, last_lam = support[:], lam_s
        support.append(j)
        lam_s = np.append(lam_s, 0.0)
        # inner loop: affine minimisation + line search back into simplex;
        # each pass that does not settle drops the blocking support point,
        # so it ends by the time one point is left (alpha = [1])
        while True:
            A = P[support]
            k = A.shape[0]
            M = np.empty((k + 1, k + 1))
            M[:k, :k] = A @ A.T
            M[:k, k] = 1.0
            M[k, :k] = 1.0
            M[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            alpha = np.linalg.lstsq(M, rhs, rcond=None)[0][:k]
            if np.min(alpha) >= -1e-12:
                lam_s = np.maximum(alpha, 0.0)
                lam_s /= lam_s.sum()
                break
            # move as far toward alpha as the simplex allows
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    alpha < 0, lam_s / (lam_s - alpha), np.inf
                )
            block = int(np.argmin(ratios))
            theta = min(max(float(ratios[block]), 0.0), 1.0)
            lam_s = (1.0 - theta) * lam_s + theta * alpha
            lam_s[block] = 0.0  # exactly zero in exact arithmetic
            lam_s[lam_s < 1e-14] = 0.0
            keep = lam_s > 0.0
            support = [s_ for s_, k_ in zip(support, keep) if k_]
            lam_s = lam_s[keep]
            lam_s /= lam_s.sum()
        if support == last_support and np.array_equal(lam_s, last_lam):
            # The step dropped p_j again and left the point where it was
            # (x within rounding of the hull, the gap test missing by a
            # hair): every later step would repeat it up to the cap, which
            # returns this same point.
            break
    else:
        # At the outer cap (numerical ties can cycle) the last feasible
        # point is still a valid upper bound on the distance, which is all
        # callers require of a non-certified answer.
        y = lam_s @ P[support]
    lam = np.zeros(m)
    lam[support] = lam_s
    return y, lam


def nearest_point_l2(points: np.ndarray, x: np.ndarray) -> HullProjection:
    """Euclidean projection of ``x`` onto ``H(points)``: Wolfe's exact
    minimum-norm-point algorithm on the points translated by ``-x``."""
    pts = _as_points(points)
    x = np.asarray(x, dtype=float).ravel()
    m, d = pts.shape
    if x.size != d:
        raise ValueError(f"point dimension {x.size} != hull dimension {d}")
    if m == 1:
        w = np.array([1.0])
        return HullProjection(pts[0].copy(), float(np.linalg.norm(x - pts[0])), w)

    # Quick exit: if x is one of the points, distance is zero.
    exact = np.flatnonzero(np.all(pts == x, axis=1))
    if exact.size:
        w = np.zeros(m)
        w[exact[0]] = 1.0
        return HullProjection(x.copy(), 0.0, w)

    y, lam = _wolfe_min_norm(pts - x, tol=1e-14)
    return HullProjection(x + y, float(np.linalg.norm(y)), lam)


def _distance_lp_exact(blocks: Blocks, p: float) -> list[HullProjection]:
    """Exact LP solve for p in {1, inf}, one projection per ``(pts, x)`` block."""
    # variables: lam^1 .. lam^Q, then one bound t on every |resid_j| of every
    # block (p = inf, so t is the largest block distance) or one slack s_j
    # per coordinate (p = 1); minimise t, or sum(s):
    #   pts_q.T @ lam^q - x_q <= slack,  x_q - pts_q.T @ lam^q <= slack,
    #   sum lam^q = 1,  lam >= 0,  slack >= 0
    lam_rows = block_diag(*(pts.T for pts, _ in blocks))
    rows, n_lam = lam_rows.shape
    minus_slack = -np.ones((rows, 1)) if math.isinf(p) else -np.eye(rows)
    A_ub = np.block([[lam_rows, minus_slack], [-lam_rows, minus_slack]])
    n_var = A_ub.shape[1]
    cobj = np.zeros(n_var)
    cobj[n_lam:] = 1.0
    offsets = np.cumsum([0] + [pts.shape[0] for pts, _ in blocks])
    sum_lam = sparse.csr_array(
        (np.ones(n_lam), np.arange(n_lam), offsets), shape=(len(blocks), n_var)
    )
    xs = np.concatenate([x for _, x in blocks])
    sol = solve_lp(
        cobj, sparse.csr_array(A_ub), np.concatenate([xs, -xs]),
        sum_lam, np.ones(len(blocks)), np.zeros(n_var), np.full(n_var, np.inf),
    )
    if sol is None:  # pragma: no cover - the LP is always feasible
        raise RuntimeError("hull-distance LP failed")
    out = []
    for (pts, x), start, stop in zip(blocks, offsets, offsets[1:]):
        lam = np.maximum(sol[start:stop], 0.0)
        lam /= lam.sum()
        point = pts.T @ lam
        out.append(HullProjection(point, float(lp_norm(x - point, p)), lam))
    return out


def max_distance_linf(blocks: Blocks) -> float:
    """``max_q dist_inf(x_q, H(pts_q))`` over ``(pts_q, x_q)`` blocks, as
    one LP that bounds every block's residual by one ``t``."""
    return max(proj.distance for proj in _distance_lp_exact(blocks, math.inf))


def distance_linf(points: np.ndarray, x: np.ndarray) -> float:
    """``dist_inf(x, H(points))`` via exact LP."""
    pts = _as_points(points)
    return max_distance_linf([(pts, np.asarray(x, dtype=float).ravel())])


def _distance_lp_general(pts: np.ndarray, x: np.ndarray, p: float) -> HullProjection:
    """SLSQP solve of ``min sum |r|^p`` over the simplex for general p > 1."""
    m, _ = pts.shape
    warm = nearest_point_l2(pts, x)
    lam0 = warm.weights

    def fun(lam: np.ndarray) -> float:
        r = pts.T @ lam - x
        return float(np.sum(np.abs(r) ** p))

    def jac(lam: np.ndarray) -> np.ndarray:
        r = pts.T @ lam - x
        g = p * np.sign(r) * np.abs(r) ** (p - 1.0)
        return pts @ g

    cons = [{"type": "eq", "fun": lambda lam: lam.sum() - 1.0, "jac": lambda lam: np.ones(m)}]
    bounds = [(0.0, 1.0)] * m
    res = minimize(
        fun,
        lam0,
        jac=jac,
        bounds=bounds,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-14},
    )
    lam = np.maximum(res.x, 0.0)
    s = lam.sum()
    lam = lam / s if s > 0 else lam0
    # Keep whichever of warm start / SLSQP result is better under L_p.
    cand = pts.T @ lam
    if lp_norm(x - cand, p) > lp_norm(x - warm.point, p):
        lam, cand = warm.weights, warm.point
    return HullProjection(cand, float(lp_norm(x - cand, p)), lam)


def distance_to_hull(
    points: np.ndarray, x: np.ndarray, p: PNorm = 2
) -> HullProjection:
    """``dist_p(x, H(points))`` with the nearest point and its weights.

    Dispatches on ``p``: exact LP for 1 and inf, Wolfe's minimum-norm
    point for 2, SLSQP for other finite ``p``.
    """
    _obs.inc("geometry.distance_to_hull.calls")
    p = validate_p(p)
    pts = _as_points(points)
    xv = np.asarray(x, dtype=float).ravel()
    if xv.size != pts.shape[1]:
        raise ValueError(f"point dimension {xv.size} != hull dimension {pts.shape[1]}")
    if norm_order_is(p, 2.0):
        return nearest_point_l2(pts, xv)
    if norm_order_is(p, 1.0) or math.isinf(p):
        return _distance_lp_exact([(pts, xv)], p)[0]
    return _distance_lp_general(pts, xv, p)


def in_hull(points: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership test ``x in H(points)`` (within ``tol`` in L_inf)."""
    return distance_linf(points, x) <= tol

