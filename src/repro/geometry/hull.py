"""The affine hull of a point set, robust to degenerate inputs.

The paper's constructions are frequently degenerate on purpose — e.g. the
proof of Theorem 8 hinges on affinely *dependent* inputs forcing
``delta* = 0`` — so the geometry kernels reduce a point set to orthonormal
coordinates of its affine hull (via SVD) before solving in it.
"""

from __future__ import annotations

import numpy as np

from .cache import cached_kernel
from .tolerance import near_zero

__all__ = ["affine_basis"]

_RANK_TOL = 1e-9


@cached_kernel("affine_basis")
def affine_basis(points: np.ndarray, tol: float = _RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the affine hull of ``points``.

    Returns ``(origin, basis)`` where ``basis`` is ``(k, d)`` with
    orthonormal rows spanning the affine hull directions; ``k`` is the
    affine dimension.  Every point satisfies
    ``point ~= origin + basis.T @ coords`` for some ``coords``.

    Memoised per process (the SVD repeats across every subset-enumeration
    loop over the same points).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    origin = pts[0]
    diffs = pts - origin
    if pts.shape[0] == 1:
        return origin, np.zeros((0, pts.shape[1]))
    # SVD-based rank with a scale-aware tolerance.
    u, s, vt = np.linalg.svd(diffs, full_matrices=False)
    if s.size == 0 or near_zero(s[0]):
        return origin, np.zeros((0, pts.shape[1]))
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return origin, vt[:rank]
