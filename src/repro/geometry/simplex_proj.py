"""Euclidean projection onto the probability simplex.

The nearest-point-in-convex-hull solver (:mod:`repro.geometry.distance`)
parameterises hull points as convex combinations ``A.T @ lam`` with ``lam`` on
the probability simplex ``{lam : lam >= 0, sum(lam) = 1}``; projected-gradient
iterations need the exact Euclidean projection onto that simplex.  We use the
classic O(m log m) sort-based algorithm (Held, Wolfe & Crowder 1974; see also
Duchi et al. 2008), fully vectorised.
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_to_simplex"]


def project_to_simplex(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Project ``v`` onto ``{x : x >= 0, sum(x) = radius}`` in Euclidean norm.

    Parameters
    ----------
    v:
        1-D array to project.
    radius:
        Simplex scale (must be positive); the standard probability simplex
        has ``radius = 1``.

    Returns
    -------
    numpy.ndarray
        The unique Euclidean projection.
    """
    v = np.asarray(v, dtype=float).ravel()
    if radius <= 0:
        raise ValueError(f"simplex radius must be positive, got {radius}")
    if v.size == 0:
        raise ValueError("cannot project empty vector onto simplex")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - radius
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0
    # cond is True for a prefix; rho is the last True index (1-based).
    rho = int(ind[cond][-1])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)

