"""The LP door: the one place SciPy's LP solver (HiGHS) is called.

Every linear program of :mod:`repro.geometry` — ``Γ`` / ``Ψ`` feasibility
and the central point, the exact ``δ*`` LP and the Kelley master,
hull distances for ``p ∈ {1, ∞}``, the Chebyshev centre — is handed to
:func:`solve_lp` as sparse row blocks.  The blocks are stacked the way
``scipy.optimize.linprog`` stacks them (inequalities, then equalities),
so HiGHS receives the column-compressed model ``linprog(method="highs")``
would build from the dense equivalent, under the options ``linprog`` sets,
and returns the same bytes; what is skipped is ``linprog``'s per-call
input cleaning, dense scans and result assembly.  ``tests/geometry/test_lp.py`` holds the door to that claim on
the installed SciPy.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

__all__ = ["solve_lp", "csr_rows"]

#: ``linprog`` rejects an "optimal" point whose bound, slack or equality
#: residual exceeds ``sqrt(tol) * 10`` at its default ``tol = 1e-9``
#: (``_check_result``, status 4); the door keeps that verdict.
_RESIDUAL_TOL = math.sqrt(1e-9) * 10

#: The two HiGHS options ``linprog(method="highs")`` sets away from
#: HiGHS's own defaults.  ``output_flag`` is not cosmetic: with it left on,
#: HiGHS returns a different optimal vertex of some degenerate LPs (found
#: by the property test on a lexicographic selection over grid points), so
#: the door sets what ``linprog`` sets.
_HIGHS_OPTIONS = {"presolve": True, "output_flag": False}


def csr_rows(
    rows: list[tuple[np.ndarray, np.ndarray, float]], n_cols: int
) -> tuple[sparse.csr_array, np.ndarray]:
    """``(A, b)`` from rows recorded as ``(cols, vals, rhs)``, ``cols``
    ascending.

    Exact zeros in ``vals`` (``-0.0`` too) are not stored, so the result
    is the canonical CSR of the dense rows holding the same numbers — the
    entries ``linprog`` finds when it scans them.
    """
    if not rows:
        return sparse.csr_array((0, n_cols)), np.zeros(0)
    counts = np.array([cols.size for cols, _, _ in rows])
    indices = np.concatenate([cols for cols, _, _ in rows])
    data = np.concatenate([vals for _, vals, _ in rows])
    keep = data != 0
    if not keep.all():
        row_of = np.repeat(np.arange(len(rows)), counts)
        counts = np.bincount(row_of[keep], minlength=len(rows))
        indices, data = indices[keep], data[keep]
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    A = sparse.csr_array(
        (data, indices.astype(np.int32, copy=False), indptr),
        shape=(len(rows), n_cols),
    )
    return A, np.array([rhs for _, _, rhs in rows])


def solve_lp(
    c: np.ndarray,
    A_ub: Optional[sparse.csr_array],
    b_ub: Optional[np.ndarray],
    A_eq: Optional[sparse.csr_array],
    b_eq: Optional[np.ndarray],
    lb: np.ndarray,
    ub: np.ndarray,
) -> Optional[np.ndarray]:
    """Minimise ``c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq``,
    ``lb <= x <= ub``; the optimal ``x``, or None.

    None means what ``linprog(...).success == False`` means: infeasible,
    unbounded, or an optimum HiGHS reports that misses a bound or a row
    by more than ``linprog``'s residual tolerance.  Either block may be
    None (no rows of that kind).  ``lb = -inf`` / ``ub = +inf`` mean "no
    bound on that side"; any other non-finite number — in ``c``, a matrix,
    a right-hand side or a bound — raises ``ValueError`` before the solver
    is called.
    """
    c = np.asarray(c, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    blocks, lo, hi = [], [], []
    if A_ub is not None and A_ub.shape[0]:
        blocks.append(A_ub)
        lo.append(np.full(A_ub.shape[0], -np.inf))
        hi.append(np.asarray(b_ub, dtype=float))
    if A_eq is not None and A_eq.shape[0]:
        blocks.append(A_eq)
        lo.append(np.asarray(b_eq, dtype=float))
        hi.append(lo[-1])
    for arr in [c, *(A.data for A in blocks), *hi]:
        if not np.isfinite(arr).all():
            raise ValueError("LP data must be finite")
    if not ((lb < np.inf).all() and (ub > -np.inf).all()):
        raise ValueError("LP bounds must be numbers, -inf below or +inf above")

    if blocks:
        A = blocks[0] if len(blocks) == 1 else sparse.vstack(blocks, format="csr")
        row_lo, row_hi = np.concatenate(lo), np.concatenate(hi)
        constraints = LinearConstraint(A, row_lo, row_hi)
    else:
        A = constraints = None
    with warnings.catch_warnings():
        # ``milp`` hands options it does not list to HiGHS verbatim, with a
        # RuntimeWarning saying so; that is the intent here.
        warnings.filterwarnings(
            "ignore", "Unrecognized options detected", RuntimeWarning
        )
        res = milp(
            c, bounds=Bounds(lb, ub), constraints=constraints,
            options=dict(_HIGHS_OPTIONS),
        )
    if not res.success:
        return None
    x, tol = res.x, _RESIDUAL_TOL
    # written so that a NaN fails the test, as it does in ``linprog``
    if not ((x >= lb - tol) & (x <= ub + tol)).all():
        return None
    if A is not None:
        Ax = A @ x
        if not ((Ax >= row_lo - tol) & (Ax <= row_hi + tol)).all():
            return None
    return x
