"""L_p norms and the norm-equivalence inequalities used throughout the paper.

The paper measures distances with the :math:`L_p` norm

.. math::

    \\|u - v\\|_p = \\Big(\\sum_{i=1}^d |u[i] - v[i]|^p\\Big)^{1/p},

with :math:`p = \\infty` denoting the max norm.  Two norm inequalities are
load-bearing in the proofs:

* ``norm_inf(x) <= norm_p(x)`` for every ``p >= 1`` (used to transfer the
  necessity proofs from the :math:`L_\\infty` construction to every
  :math:`L_p`, Theorems 5 and 6);
* Hölder's inequality (paper Theorem 13): for ``1 <= r <= p``,
  ``norm_p(x) <= norm_r(x) <= d**(1/r - 1/p) * norm_p(x)`` — used to transfer
  the :math:`\\delta^*` bounds from :math:`L_2` to general :math:`L_p`
  (Theorem 14).

All functions here are vectorised over an optional leading axis so that bulk
workload evaluation (thousands of points) stays in NumPy, per the HPC guide's
"vectorise the inner loop" rule.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .tolerance import exactly_zero, norm_order_is

__all__ = [
    "lp_norm",
    "pairwise_lp_distances",
    "max_edge_length",
    "min_edge_length",
    "validate_p",
]

PNorm = Union[float, int]


def validate_p(p: PNorm) -> float:
    """Validate and canonicalise a norm order ``p``.

    Parameters
    ----------
    p:
        Norm order; any real ``p >= 1`` or ``math.inf``.

    Returns
    -------
    float
        The canonical float value of ``p``.

    Raises
    ------
    ValueError
        If ``p < 1`` (not a norm — the triangle inequality fails).
    """
    pf = float(p)
    if math.isnan(pf) or pf < 1.0:
        raise ValueError(f"L_p norm requires p >= 1, got p={p!r}")
    return pf


def lp_norm(x: np.ndarray, p: PNorm = 2, axis: int = -1) -> np.ndarray:
    """Compute ``||x||_p`` along ``axis``.

    Handles ``p = inf`` (max norm), ``p = 1`` and ``p = 2`` with dedicated
    fast paths, and general ``p`` via the power formula.
    """
    p = validate_p(p)
    x = np.asarray(x, dtype=float)
    if math.isinf(p):
        return np.max(np.abs(x), axis=axis)
    if norm_order_is(p, 1.0):
        return np.sum(np.abs(x), axis=axis)
    if norm_order_is(p, 2.0):
        return np.sqrt(np.sum(x * x, axis=axis))
    ax = np.abs(x)
    # Guard against overflow for large p by factoring out the max element.
    # Exact-zero guard: scaling by a tiny non-zero max is correct, only a
    # literal zero divides badly (see repro.geometry.tolerance.exactly_zero).
    m = np.max(ax, axis=axis, keepdims=True)
    safe_m = np.where(exactly_zero(m), 1.0, m)
    scaled = ax / safe_m
    out = np.squeeze(m, axis=axis) * np.sum(scaled**p, axis=axis) ** (1.0 / p)
    return out


def pairwise_lp_distances(points: np.ndarray, p: PNorm = 2) -> np.ndarray:
    """All pairwise distances between rows of ``points`` (m x d).

    Returns an ``(m, m)`` symmetric matrix with zero diagonal.  Vectorised:
    builds the difference tensor once rather than looping over pairs.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diffs = pts[:, None, :] - pts[None, :, :]
    return lp_norm(diffs, p, axis=-1)


def max_edge_length(points: np.ndarray, p: PNorm = 2) -> float:
    """``max_{e in E} ||e||_p`` over all edges between rows of ``points``.

    This is the quantity ``max_{e in E+} ||e||_p`` from the paper's Table 1
    when ``points`` are the non-faulty inputs.  Returns ``0.0`` for fewer
    than two points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        return 0.0
    return float(np.max(pairwise_lp_distances(pts, p)))


def min_edge_length(points: np.ndarray, p: PNorm = 2) -> float:
    """``min_{e in E} ||e||_p`` over all edges between distinct rows.

    Note this is the minimum over *pairs of points*, including duplicate
    points (distance zero) — matching the multiset semantics of the paper.
    Returns ``inf`` for fewer than two points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    if m < 2:
        return math.inf
    dmat = pairwise_lp_distances(pts, p)
    iu = np.triu_indices(m, k=1)
    return float(np.min(dmat[iu]))

