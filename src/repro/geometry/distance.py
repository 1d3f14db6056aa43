"""Point-to-convex-hull distances under L_p norms.

Everything in the paper that touches a hull reduces to one primitive:

    ``dist_p(x, H(S)) = min { ||x - y||_p : y in H(S) }``

where ``H(S)`` is the convex hull of a finite multiset ``S`` of points in
``R^d``.  Parameterising ``y = S.T @ lam`` with ``lam`` on the probability
simplex turns this into a convex program over ``lam``:

* **p = 2** — a convex quadratic over the simplex.  Solved with accelerated
  projected gradient (FISTA) using the exact simplex projection, followed by
  an active-set KKT polish that recovers the exact solution on the identified
  support.  This is the hot path (the minimax solver calls it thousands of
  times) so it is pure vectorised NumPy.
* **p = 1 and p = inf** — linear programs, solved exactly with HiGHS
  (through :func:`repro.geometry.lp.solve_lp`).
* **general p** — a smooth convex objective ``sum |r_i|^p`` over the simplex,
  solved with SLSQP warm-started from the L2 projection.

Membership (``x in H(S)``) is the special case ``dist_inf(x, H(S)) <= tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag
from scipy.optimize import minimize

from ..obs import metrics as _obs
from .lp import solve_lp
from .norms import lp_norm, validate_p
from .simplex_proj import project_to_simplex
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

_EPS_SUPPORT = 1e-9


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


def _polish_active_set(pts: np.ndarray, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Exact KKT solve on the support identified by an approximate ``lam``.

    Solves ``min ||pts[S].T @ mu - x||_2^2  s.t.  sum(mu) = 1`` over the
    support ``S``, via the bordered normal equations.  If the resulting
    ``mu`` is (numerically) nonnegative and improves the objective, it is
    returned in place of ``lam``.
    """
    support = np.flatnonzero(lam > _EPS_SUPPORT)
    if support.size == 0:
        support = np.array([int(np.argmax(lam))])
    A = pts[support]  # (k, d)
    k = A.shape[0]
    G = A @ A.T
    rhs = A @ x
    # Bordered system: [G 1; 1^T 0] [mu; nu] = [rhs; 1]
    M = np.zeros((k + 1, k + 1))
    M[:k, :k] = G
    M[:k, k] = 1.0
    M[k, :k] = 1.0
    b = np.zeros(k + 1)
    b[:k] = rhs
    b[k] = 1.0
    try:
        sol = np.linalg.lstsq(M, b, rcond=None)[0]
    except np.linalg.LinAlgError:  # pragma: no cover - lstsq rarely fails
        return lam
    mu = sol[:k]
    if np.min(mu) < -1e-10:
        return lam
    mu = np.maximum(mu, 0.0)
    s = mu.sum()
    if s <= 0:
        return lam
    mu /= s
    full = np.zeros_like(lam)
    full[support] = mu
    old = float(np.sum((pts.T @ lam - x) ** 2))
    new = float(np.sum((pts.T @ full - x) ** 2))
    return full if new <= old + 1e-15 else lam


def _wolfe_min_norm(
    P: np.ndarray, tol: float, max_iter: int = 200
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Wolfe's minimum-norm-point algorithm over ``conv(rows of P)``.

    Returns ``(y, lam)`` with ``y = P.T @ lam`` the (near-)exact minimum
    norm point.  Finite, exact up to linear-algebra precision, and fast
    for the small point counts (m <= ~30) the consensus layer uses —
    unlike first-order methods it has no slow convergence tail.
    Returns None on numerical breakdown (caller falls back to FISTA).
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
        if dots[j] >= yy - tol * scale:
            lam = np.zeros(m)
            lam[support] = lam_s
            return y, lam
        if j in support:  # no progress possible; accept current point
            lam = np.zeros(m)
            lam[support] = lam_s
            return y, lam
        support.append(j)
        lam_s = np.append(lam_s, 0.0)
        # inner loop: affine minimisation + line search back into simplex
        for _ in range(max_iter):
            A = P[support]
            k = A.shape[0]
            M = np.empty((k + 1, k + 1))
            M[:k, :k] = A @ A.T
            M[:k, k] = 1.0
            M[k, :k] = 1.0
            M[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                alpha = np.linalg.lstsq(M, rhs, rcond=None)[0][:k]
            except np.linalg.LinAlgError:  # pragma: no cover
                return None
            if np.min(alpha) >= -1e-12:
                lam_s = np.maximum(alpha, 0.0)
                s = lam_s.sum()
                if s <= 0:  # pragma: no cover - degenerate system
                    return None
                lam_s /= s
                break
            # move as far toward alpha as the simplex allows
            neg = alpha < lam_s  # candidates limiting the step
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    alpha < 0, lam_s / (lam_s - alpha), np.inf
                )
            theta = float(np.min(ratios))
            theta = min(max(theta, 0.0), 1.0)
            lam_s = (1.0 - theta) * lam_s + theta * alpha
            lam_s[lam_s < 1e-14] = 0.0
            keep = lam_s > 0.0
            if not np.any(keep):  # pragma: no cover
                return None
            support = [s_ for s_, k_ in zip(support, keep) if k_]
            lam_s = lam_s[keep]
            s = lam_s.sum()
            lam_s /= s
        else:  # pragma: no cover - inner loop failed to settle
            return None
    # Outer iteration cap reached (numerical ties can cycle): return the
    # best feasible point found — still a valid upper bound on the
    # distance, which is all callers require of a non-certified answer.
    lam = np.zeros(m)
    lam[support] = lam_s
    return lam_s @ P[support], lam


def nearest_point_l2(
    points: np.ndarray,
    x: np.ndarray,
    *,
    max_iter: int = 5000,
    tol: float = 1e-12,
) -> HullProjection:
    """Euclidean projection of ``x`` onto ``H(points)``.

    Primary path: Wolfe's exact minimum-norm-point algorithm on the
    translated points.  Fallback (numerical breakdown only): FISTA on
    ``f(lam) = 0.5 * ||points.T @ lam - x||^2`` over the probability
    simplex, polished with an exact active-set solve.
    """
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

    wolfe = _wolfe_min_norm(pts - x, tol=1e-14)
    if wolfe is not None:
        y, lam = wolfe
        point = x + y
        return HullProjection(point, float(np.linalg.norm(y)), lam)

    G = pts @ pts.T  # (m, m) Gram matrix; gradient = G @ lam - pts @ x
    c = pts @ x
    # Lipschitz constant of the gradient = largest eigenvalue of G.
    L = float(np.linalg.norm(G, 2)) if m > 1 else float(G[0, 0])
    if L <= 0:
        L = 1.0
    step = 1.0 / L

    lam = np.full(m, 1.0 / m)
    y = lam.copy()
    t_k = 1.0
    xx = float(x @ x)
    scale = max(1.0, xx, float(np.max(np.abs(G))))
    best_sq = math.inf
    best_lam = lam
    stall = 0
    for _ in range(max_iter):
        grad = G @ y - c
        lam_new = project_to_simplex(y - step * grad)
        # FISTA with adaptive restart (O'Donoghue & Candès): momentum is
        # reset whenever it points uphill, restoring fast monotone decay.
        if (y - lam_new) @ (lam_new - lam) > 0:
            t_k = 1.0
            y = lam_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            y = lam_new + ((t_k - 1.0) / t_new) * (lam_new - lam)
            t_k = t_new
        lam = lam_new
        dist_sq = float(lam @ G @ lam) - 2.0 * float(c @ lam) + xx
        if dist_sq < best_sq - tol * scale:
            best_sq, best_lam, stall = dist_sq, lam, 0
        else:
            if dist_sq < best_sq:
                best_sq, best_lam = dist_sq, lam
            stall += 1
            if stall >= 8:  # no meaningful progress for 8 iterations
                break
    lam = best_lam

    lam = _polish_active_set(pts, x, lam)
    point = pts.T @ lam
    dist = float(np.linalg.norm(x - point))
    # Near-zero distances: FISTA plateaus around sqrt(machine-eps) for
    # interior points; settle membership exactly with one LP so interior
    # points report distance 0 (and exterior ones keep the FISTA answer).
    if 0.0 < dist <= 1e-5 * max(1.0, float(np.max(np.abs(pts)))):
        exact_proj = _distance_lp_exact([(pts, x)], math.inf)[0]
        if exact_proj.distance <= 1e-9 * max(1.0, float(np.max(np.abs(pts)))):
            return HullProjection(x.copy(), 0.0, exact_proj.weights)
    return HullProjection(point, dist, lam)


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

    Dispatches on ``p``: exact LP for 1 and inf, FISTA+polish for 2, SLSQP
    for other finite ``p``.
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

