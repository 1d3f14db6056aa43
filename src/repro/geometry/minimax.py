"""The optimal relaxation ``δ*(S)``: a certified min-max distance solver.

Step 2 of the paper's algorithm ALGO needs, for the broadcast multiset
``S`` of ``n`` inputs with up to ``f`` faulty,

.. math::

    δ^*(S) \\;=\\; \\min_{x \\in R^d} \\; \\max_{i} \\;
        \\mathrm{dist}_p(x, H(P_i)),

where ``P_1, ..., P_{\\binom{n}{f}}`` are the size ``n - f`` subsets of
``S`` — the smallest ``δ`` for which ``Γ_{(δ,p)}(S)`` is nonempty, together
with a deterministic point attaining it.

Solvers
-------
* ``p ∈ {1, ∞}`` — the whole problem is a single exact LP
  (``min t  s.t.  dist_p(x, H(P_i)) ≤ t``) solved with HiGHS.
* ``p = 2`` and general finite ``p`` — Kelley's cutting-plane method.
  ``dist_p(x, C) = max_{\\|g\\|_q ≤ 1} ⟨g, x⟩ - h_C(g)`` (``q`` the dual
  norm, ``h_C`` the support function), so every evaluation of the distance
  yields a *global* linear under-estimator ("cut"):

      ``t ≥ ⟨g, x⟩ - max_j ⟨g, a_j⟩``  with  ``g = ∇\\|x' - y'\\|_p``,

  where ``y'`` is the projection of the current iterate ``x'``.  The master
  LP over accumulated cuts yields a certified **lower** bound; evaluating
  the true max-distance at the LP solution yields an **upper** bound.  We
  iterate until the gap closes, so the returned value carries a numerical
  optimality certificate (`gap`).

The optimum is always attained inside ``H(S)`` (projecting any ``x`` onto
``H(S)`` cannot increase the distance to any sub-hull ``H(P_i) ⊆ H(S)``,
projections onto convex sets being nonexpansive), so the master LP is run
over the bounding box of ``S`` — keeping it bounded from the first
iteration.

For ``p = 2`` the same argument puts the optimum inside ``aff(S)``, and
every ``H(P_i)`` lies there too.  When ``S`` spans only ``k < d``
dimensions (e.g. an asynchronous round's ``n - f`` verified values), the
cutting plane runs on the orthonormal coordinates of ``aff(S)`` and the
minimiser is lifted back: the distance-preserving projection of the
paper's Theorem 8 / Case II of Theorem 9, under which Lemma 13's simplex
gives its incenter.  In ``d`` coordinates the master LP is free along
the directions normal to ``aff(S)``, and Kelley spends its iterations
fencing them off.  Only the Euclidean norm is invariant under that
rotation, so every other ``p`` — and a full-dimensional ``S`` — is solved
in ``R^d`` as given.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy import sparse

from ..obs import metrics as _obs
from ..obs.tracer import trace_span
from .cache import cached_kernel
from .distance import distance_to_hull
from .hull import affine_basis
from .intersections import f_subsets, gamma_point
from .lp import csr_rows, solve_lp
from .norms import lp_norm, validate_p
from .tolerance import norm_order_is

__all__ = ["DeltaStarResult", "delta_star", "max_subset_distance"]

PNorm = Union[float, int]

#: Cutting-plane stop rule: gap target (relative to the data scale),
#: master LPs per cycle, and Kelley + SLSQP-polish cycles.
_GAP_TOL = 1e-8
_KELLEY_BUDGET = 25
_POLISH_CYCLES = 4


@dataclass(frozen=True)
class DeltaStarResult:
    """Outcome of the δ* optimisation.

    Attributes
    ----------
    value:
        ``δ*(S)`` (the certified min-max distance).
    point:
        A minimiser ``p0`` — the point ALGO decides.
    subsets:
        The index tuples of the size ``n-f`` subsets;
        ``max_subset_distance(S, point, subsets, p)`` measures ``point``
        against each of them.
    gap:
        Certified optimality gap (upper bound − LP lower bound); 0 for the
        exact-LP norms.
    iterations:
        Cutting-plane iterations used (0 for the exact-LP norms).
    """

    value: float
    point: np.ndarray
    subsets: tuple[tuple[int, ...], ...]
    gap: float
    iterations: int


def max_subset_distance(
    S: np.ndarray, x: np.ndarray, subsets: Sequence[Sequence[int]], p: PNorm = 2
) -> np.ndarray:
    """Distances from ``x`` to every ``H(S[T])`` for ``T`` in ``subsets``."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    return np.array(
        [distance_to_hull(S[list(T)], x, p).distance for T in subsets]
    )


def _lp_grad(r: np.ndarray, p: float) -> np.ndarray:
    """Gradient of ``||r||_p`` at ``r != 0`` (unit dual-norm vector)."""
    if norm_order_is(p, 2.0):
        return r / np.linalg.norm(r)
    if math.isinf(p):
        g = np.zeros_like(r)
        j = int(np.argmax(np.abs(r)))
        g[j] = np.sign(r[j])
        return g
    if norm_order_is(p, 1.0):
        return np.sign(r)
    nrm = float(lp_norm(r, p))
    return np.sign(r) * (np.abs(r) / nrm) ** (p - 1.0)


def _delta_star_exact_lp(
    S: np.ndarray, subsets: Sequence[tuple[int, ...]], p: float
) -> tuple[float, np.ndarray]:
    """Single exact LP for ``p ∈ {1, ∞}``.

    Variables: ``x (d)``, then per subset a weight block ``lam_i`` (and an
    L1 slack block for ``p = 1``), and finally the scalar ``t``.
    """
    n, d = S.shape
    l1 = norm_order_is(p, 1.0)
    t_idx = d + sum(len(T) for T in subsets) + (d * len(subsets) if l1 else 0)

    rows_ub, rows_eq = [], []
    offset = d
    for T in subsets:
        pts = S[list(T)]
        m = len(T)
        lam = np.arange(offset, offset + m)
        offset += m
        rows_eq.append((lam, np.ones(m), 1.0))
        if l1:
            s_off = offset
            offset += d
        for j in range(d):
            # |x_j - pts[:, j] @ lam| <= t  (p = inf)  or  <= s_j  (p = 1)
            cols = np.concatenate(([j], lam, [s_off + j if l1 else t_idx]))
            vals = np.concatenate(([1.0], -pts[:, j]))
            rows_ub.append((cols, np.append(vals, -1.0), 0.0))
            rows_ub.append((cols, np.append(-vals, -1.0), 0.0))
        if l1:  # sum s <= t
            cols = np.append(np.arange(s_off, s_off + d), t_idx)
            rows_ub.append((cols, np.append(np.ones(d), -1.0), 0.0))

    n_var = t_idx + 1
    c = np.zeros(n_var)
    c[t_idx] = 1.0
    lb = np.zeros(n_var)
    lb[:d] = -np.inf
    x = solve_lp(
        c, *csr_rows(rows_ub, n_var), *csr_rows(rows_eq, n_var),
        lb, np.full(n_var, np.inf),
    )
    if x is None:  # pragma: no cover - always feasible (x = any input)
        raise RuntimeError("delta* LP failed")
    return float(x[t_idx]), x[:d]


def _polish_slsqp(
    subset_pts: list[np.ndarray],
    p: float,
    x0: np.ndarray,
    f0: float,
    scale: float,
) -> tuple[np.ndarray, float]:
    """Local smooth solve of ``min t s.t. dist_i(x) <= t`` from ``(x0, f0)``.

    Near the optimum each hull distance is smooth (its gradient is the
    unit vector toward the projection), so SLSQP converges quadratically
    where Kelley zigzags.  Returns the better of the start and the
    polished point (evaluated with the *true* distances).
    """
    from scipy.optimize import minimize as _minimize

    d = x0.size

    def eval_all(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dists = np.empty(len(subset_pts))
        grads = np.zeros((len(subset_pts), d))
        for i, pts in enumerate(subset_pts):
            proj = distance_to_hull(pts, x, p)
            dists[i] = proj.distance
            if proj.distance > 1e-14 * scale:
                grads[i] = _lp_grad(x - proj.point, p)
        return dists, grads

    def fun(z: np.ndarray) -> float:
        return z[d]

    def jac(z: np.ndarray) -> np.ndarray:
        g = np.zeros(d + 1)
        g[d] = 1.0
        return g

    def cons_f(z: np.ndarray) -> np.ndarray:
        dists, _ = eval_all(z[:d])
        return z[d] - dists

    def cons_j(z: np.ndarray) -> np.ndarray:
        _, grads = eval_all(z[:d])
        J = np.zeros((len(subset_pts), d + 1))
        J[:, :d] = -grads
        J[:, d] = 1.0
        return J

    z0 = np.concatenate([x0, [f0]])
    res = _minimize(
        fun,
        z0,
        jac=jac,
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_j}],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    x_new = np.asarray(res.x[:d])
    dists, _ = eval_all(x_new)
    f_new = float(np.max(dists)) if dists.size else 0.0
    if f_new < f0:
        return x_new, f_new
    return x0, f0


def _delta_star_cutting_plane(
    S: np.ndarray, subsets: Sequence[tuple[int, ...]], p: float
) -> tuple[float, np.ndarray, float, int]:
    """Kelley cutting-plane + SLSQP-polish solver for finite ``p``.

    Kelley supplies a certified global *lower* bound (every cut is a
    global under-estimator); SLSQP supplies fast local convergence of the
    *upper* bound.  Alternating the two closes the gap orders of
    magnitude faster than either alone.  It stops once the gap is at most
    ``_GAP_TOL * max(1, scale)``, or after ``_POLISH_CYCLES`` rounds of
    ``_KELLEY_BUDGET`` master LPs — 100 LPs at most.
    """
    n, d = S.shape
    lo = S.min(axis=0)
    hi = S.max(axis=0)
    scale = float(np.max(hi - lo)) or 1.0
    subset_pts = [S[list(T)] for T in subsets]

    cuts_g: list[np.ndarray] = []
    cuts_h: list[float] = []

    def add_cuts(x: np.ndarray) -> float:
        """Evaluate F(x), appending one cut per subset with positive distance."""
        fmax = 0.0
        for pts in subset_pts:
            proj = distance_to_hull(pts, x, p)
            fmax = max(fmax, proj.distance)
            if proj.distance > 1e-14 * scale:
                g = _lp_grad(x - proj.point, p)
                h = float(np.max(pts @ g))
                cuts_g.append(g)
                cuts_h.append(h)
        return fmax

    x_best = S.mean(axis=0)
    f_best = add_cuts(x_best)
    lower = 0.0
    it = 0
    total_used = 0
    for _cycle in range(_POLISH_CYCLES):
        for it in range(1, _KELLEY_BUDGET + 1):
            total_used += 1
            # Master LP: min t s.t. <g, x> - t <= h for each cut, x in box.
            c = np.zeros(d + 1)
            c[d] = 1.0
            A_ub = np.column_stack([np.array(cuts_g), -np.ones(len(cuts_g))])
            sol = solve_lp(
                c, sparse.csr_array(A_ub), np.array(cuts_h), None, None,
                np.append(lo, 0.0), np.append(hi, np.inf),
            )
            if sol is None:  # pragma: no cover - master LP is always feasible
                break
            x_k = sol[:d]
            lower = max(lower, float(sol[d]))
            f_k = add_cuts(x_k)
            if f_k < f_best:
                f_best, x_best = f_k, x_k
            if f_best - lower <= _GAP_TOL * max(1.0, scale):
                return f_best, x_best, f_best - lower, total_used
        # Polish the incumbent, feed the polished point back as cuts.
        x_pol, f_pol = _polish_slsqp(subset_pts, p, x_best, f_best, scale)
        if f_pol < f_best:
            x_best, f_best = x_pol, f_pol
            add_cuts(x_best)
        if f_best - lower <= _GAP_TOL * max(1.0, scale):
            break
    return f_best, x_best, f_best - lower, total_used


def delta_star(S: np.ndarray, f: int, *, p: PNorm = 2) -> DeltaStarResult:
    """Compute ``δ*(S)`` and a minimiser for ``f`` faults under ``L_p``.

    Parameters
    ----------
    S:
        ``(n, d)`` multiset of inputs (as collected in Step 1 of ALGO).
    f:
        Maximum number of Byzantine inputs, ``0 <= f < n``.
    p:
        Norm order of the relaxation (Definition 9).
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n, d = S.shape
    if not 0 <= f < n:
        raise ValueError(f"need 0 <= f < n={n}, got f={f}")
    p = validate_p(p)

    t0 = time.perf_counter()
    with trace_span(
        "geometry.delta_star", n=n, d=d, f=f, p=float(p)
    ) as span:
        result = _delta_star_solve(S, n, f, p)
        span.tag(value=result.value, gap=result.gap,
                 iterations=result.iterations)
    reg = _obs.current_registry()
    reg.inc("geometry.delta_star.calls")
    reg.inc("geometry.delta_star.iterations", result.iterations)
    reg.observe("geometry.delta_star.seconds", time.perf_counter() - t0)
    return result


@cached_kernel("delta_star")
def _delta_star_solve(S: np.ndarray, n: int, f: int, p: float) -> DeltaStarResult:
    # Memoised under canonical keys (repro.geometry.cache): the solve is
    # wrapped, not delta_star itself, so call counters and trace spans
    # stay live per caller while repeated instances skip the solvers.
    # The C(n, f) subsets are a function of (n, f), so they are built
    # here, on a miss, and stay out of the key every lookup encodes.
    subsets = tuple(f_subsets(n, f))
    # δ = 0 fast path: Γ(S) nonempty means no relaxation is needed at all
    # (e.g. Theorem 8's affinely-dependent inputs, or n >= (d+1)f + 1).
    g0 = gamma_point(S, f)
    if g0 is not None:
        return DeltaStarResult(0.0, g0, subsets, 0.0, 0)

    if norm_order_is(p, 1.0) or math.isinf(p):
        value, point = _delta_star_exact_lp(S, subsets, p)
        return DeltaStarResult(value, point, subsets, 0.0, 0)

    if norm_order_is(p, 2.0):
        origin, basis = affine_basis(S)
        if basis.shape[0] < S.shape[1]:
            # Solve in the k < d orthonormal coordinates of aff(S) and
            # lift back (see the module docstring).
            value, y, gap, iters = _delta_star_cutting_plane(
                (S - origin) @ basis.T, subsets, p
            )
            return DeltaStarResult(
                float(value), origin + y @ basis, subsets, float(gap), iters
            )
    value, point, gap, iters = _delta_star_cutting_plane(S, subsets, p)
    return DeltaStarResult(float(value), point, subsets, float(gap), iters)
