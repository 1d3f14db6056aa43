"""The LP door is ``linprog``: same verdict, same bytes, on this SciPy.

``repro.geometry.lp.solve_lp`` is the only place the program calls
SciPy's LP solver.  These tests hold it to ``scipy.optimize.linprog(...,
method="highs")`` on the *dense* equivalent of every system — the model
the program handed over before the door existed — so a SciPy whose
``milp`` and ``linprog`` stop agreeing fails here, not in a pinned digest.

``DenseHullSystem`` below is the row builder of the commit before the
door, kept as the reference the sparse rows are compared against.  Its
``lexicographic_point`` is the d-LP selection ``_HullSystem`` made before
``central_point`` replaced it, kept as the reference for "is the set
empty" (``test_hull_system.py``).
"""

from __future__ import annotations

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.geometry import lp
from repro.geometry.intersections import HullSystem, f_subsets
from repro.geometry.lp import csr_rows, solve_lp

INF = math.inf


def linprog_x(c, A_ub, b_ub, A_eq, b_eq, lb, ub):
    """``linprog``'s answer on dense blocks: ``x`` or None."""
    bounds = [
        (None if lo == -INF else lo, None if hi == INF else hi)
        for lo, hi in zip(lb, ub)
    ]
    res = linprog(
        c,
        A_ub=A_ub if A_ub.size else None,
        b_ub=b_ub if A_ub.size else None,
        A_eq=A_eq if A_eq.size else None,
        b_eq=b_eq if A_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    return np.asarray(res.x) if res.success else None


def door_x(c, A_ub, b_ub, A_eq, b_eq, lb, ub):
    """The door's answer on the same numbers, CSR in."""
    return solve_lp(
        c, sparse.csr_array(A_ub), b_ub, sparse.csr_array(A_eq), b_eq, lb, ub
    )


def assert_same(got, expected):
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got.tobytes() == expected.tobytes()


class DenseHullSystem:
    """``_HullSystem`` as it built its rows before the door: one dense
    vector of the current width per row, padded into dense blocks."""

    def __init__(self, d):
        self.d, self.n_extra = d, 0
        self.rows_eq, self.rows_ub = [], []
        self.weight_cols = []

    def _alloc(self, size):
        off = self.d + self.n_extra
        self.n_extra += size
        return off

    def add_hull_constraint(self, pts, coords=None, delta=0.0, p=INF):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, k = pts.shape
        coords = list(range(self.d)) if coords is None else list(coords)
        lam_off = self._alloc(m)
        self.weight_cols.extend(range(lam_off, lam_off + m))
        s_off = self._alloc(k) if delta and p == 1 else None
        n_now = self.d + self.n_extra
        row = np.zeros(n_now)
        row[lam_off : lam_off + m] = 1.0
        self.rows_eq.append((row, 1.0))
        for j in range(k):
            row = np.zeros(n_now)
            row[coords[j]] = 1.0
            row[lam_off : lam_off + m] = -pts[:, j]
            if not delta:
                self.rows_eq.append((row, 0.0))
            elif p == INF:
                self.rows_ub.append((row, delta))
                self.rows_ub.append((-row, delta))
            else:
                row[s_off + j] = -1.0
                self.rows_ub.append((row, 0.0))
                row2 = -row
                row2[s_off + j] = -1.0
                self.rows_ub.append((row2, 0.0))
        if s_off is not None:
            row = np.zeros(n_now)
            row[s_off : s_off + k] = 1.0
            self.rows_ub.append((row, delta))

    def assemble(self, n=None):
        n = self.d + self.n_extra if n is None else n

        def padded(rows):
            A, b = np.zeros((len(rows), n)), np.zeros(len(rows))
            for i, (row, rhs) in enumerate(rows):
                A[i, : row.size], b[i] = row, rhs
            return A, b

        lb = np.zeros(n)
        lb[: self.d] = -INF
        return *padded(self.rows_ub), *padded(self.rows_eq), lb, np.full(n, INF)

    def lexicographic_point(self):
        A_ub, b_ub, A_eq, b_eq, lb, ub = self.assemble()
        sol = None
        for j in range(self.d):
            c = np.zeros(lb.size)
            c[j] = 1.0
            sol_j = linprog_x(c, A_ub, b_ub, A_eq, b_eq, lb, ub)
            if sol_j is None:
                if j == 0:
                    sol = linprog_x(np.zeros(lb.size), A_ub, b_ub, A_eq, b_eq, lb, ub)
                break
            pin = np.zeros((1, lb.size))
            pin[0, j] = 1.0
            A_ub = np.vstack([A_ub, pin])
            b_ub = np.append(b_ub, sol_j[j] + 1e-8)
            sol = sol_j
        return None if sol is None else sol[: self.d]

    def central_point(self):
        """Maximise ``t`` with every weight ``λ = μ + t``, ``μ >= 0``: one
        more column holding each row's sum over the weight columns."""
        A_ub, b_ub, A_eq, b_eq, lb, ub = self.assemble()
        weight = np.zeros(lb.size)
        weight[self.weight_cols] = 1.0
        c = np.zeros(lb.size + 1)
        c[-1] = -1.0
        x = linprog_x(
            c, np.column_stack([A_ub, A_ub @ weight]), b_ub,
            np.column_stack([A_eq, A_eq @ weight]), b_eq,
            np.append(lb, 0.0), np.append(ub, 1.0),
        )
        return None if x is None else x[: self.d]

    def minimize_pair_linf(self, d):
        n = self.d + self.n_extra
        A_ub, b_ub, A_eq, b_eq, lb, ub = self.assemble(n + 1)
        lb[n] = 0.0
        extra = np.zeros((2 * d, n + 1))
        for j in range(d):
            extra[2 * j, [j, d + j, n]] = 1.0, -1.0, -1.0
            extra[2 * j + 1, [j, d + j, n]] = -1.0, 1.0, -1.0
        c = np.zeros(n + 1)
        c[n] = 1.0
        x = linprog_x(
            c, np.vstack([A_ub, extra]), np.append(b_ub, np.zeros(2 * d)),
            A_eq, b_eq, lb, ub,
        )
        return None if x is None else (float(x[n]), x[: self.d])


# ---------------------------------------------------------------- strategies

#: Coefficients from a small grid, zero included: sparse rows, duplicate
#: rows, parallel constraints and degenerate vertices all occur.
_COEF = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 3.0])
_BOUND = st.sampled_from([(-INF, INF), (0.0, INF), (-1.0, 1.0), (-INF, 2.0), (0.0, 0.0)])


@st.composite
def random_lps(draw):
    n = draw(st.integers(1, 5))
    m_ub = draw(st.integers(0, 6))
    m_eq = draw(st.integers(0, 2))

    def block(m):
        flat = draw(st.lists(_COEF, min_size=m * n, max_size=m * n))
        return np.array(flat, dtype=float).reshape(m, n)

    def vec(m):
        return np.array(draw(st.lists(_COEF, min_size=m, max_size=m)), dtype=float)

    bounds = draw(st.lists(_BOUND, min_size=n, max_size=n))
    lb = np.array([lo for lo, _ in bounds])
    ub = np.array([hi for _, hi in bounds])
    return vec(n), block(m_ub), vec(m_ub), block(m_eq), vec(m_eq), lb, ub


@st.composite
def hull_systems(draw):
    """``(d, f, Y, constraint)``: the Γ / Γ_(δ,p) system of a small multiset
    on an integer grid (duplicate points, zero coordinates), at or above
    the tight size ``n = (d+1)f + 1`` or one below it (Γ may be empty)."""
    d = draw(st.integers(1, 3))
    f = draw(st.integers(1, 2))
    n = (d + 1) * f + 1 + draw(st.sampled_from([-1, 0, 0, 1]))
    coords = st.integers(-2, 2).map(float)
    Y = np.array(draw(st.lists(coords, min_size=n * d, max_size=n * d))).reshape(n, d)
    constraint = draw(
        st.sampled_from([{}, {}, {"delta": 0.75, "p": INF}, {"delta": 1.5, "p": 1}])
    )
    return d, f, Y, constraint


def both_systems(d, f, Y, constraint):
    got, ref = HullSystem(d), DenseHullSystem(d)
    for T in f_subsets(Y.shape[0], f):
        got.add_hull_constraint(Y[list(T)], **constraint)
        ref.add_hull_constraint(Y[list(T)], **constraint)
    return got, ref


# --------------------------------------------------------------------- tests


class TestDoorIsLinprog:
    @given(random_lps())
    @settings(max_examples=300, deadline=None)
    def test_random_systems(self, system):
        assert_same(door_x(*system), linprog_x(*system))

    @pytest.mark.parametrize(
        "name, system, verdict",
        [
            ("feasible", ([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -2.0],
                          np.zeros((0, 2)), [], [-INF, -INF], [INF, INF]), "x"),
            ("infeasible", ([1.0], [[1.0], [-1.0]], [0.0, -1.0],
                            np.zeros((0, 1)), [], [-INF], [INF]), None),
            ("unbounded", ([1.0, 0.0], [[0.0, 1.0]], [1.0],
                           np.zeros((0, 2)), [], [-INF, -INF], [INF, INF]), None),
            ("eq-only", ([0.0, 1.0], np.zeros((0, 2)), [],
                         [[1.0, 1.0]], [1.0], [0.0, 0.0], [INF, INF]), "x"),
            ("no-rows", ([1.0, -1.0], np.zeros((0, 2)), [],
                         np.zeros((0, 2)), [], [0.0, -INF], [INF, 3.0]), "x"),
            ("crossed-bounds", ([1.0], np.zeros((0, 1)), [],
                                np.zeros((0, 1)), [], [2.0], [1.0]), None),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_each_verdict(self, name, system, verdict):
        system = tuple(np.asarray(part, dtype=float) for part in system)
        got = door_x(*system)
        assert_same(got, linprog_x(*system))
        assert (got is None) == (verdict is None)

    def test_the_options_warning_stays_inside(self):
        # milp announces options it passes to HiGHS verbatim; callers of
        # the door (and `python -W error`) must not see that
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_lp(np.array([1.0]), sparse.csr_array(np.array([[-1.0]])),
                         np.array([-2.0]), None, None, np.zeros(1), np.full(1, INF))
        assert x.tolist() == [2.0]

    def test_missing_blocks_may_be_none(self):
        c, lb, ub = np.array([1.0, 1.0]), np.zeros(2), np.full(2, INF)
        A = sparse.csr_array(np.array([[-1.0, -1.0]]))
        b = np.array([-1.0])
        empty = np.zeros((0, 2))
        assert_same(solve_lp(c, A, b, None, None, lb, ub),
                    linprog_x(c, A.toarray(), b, empty, np.zeros(0), lb, ub))
        assert_same(solve_lp(c, None, None, A, b, lb, ub),
                    linprog_x(c, empty, np.zeros(0), A.toarray(), b, lb, ub))
        assert_same(solve_lp(c, None, None, None, None, lb, ub),
                    linprog_x(c, empty, np.zeros(0), empty, np.zeros(0), lb, ub))


class TestHullSystemsThroughTheDoor:
    @given(hull_systems())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_dense_rows(self, drawn):
        got, ref = both_systems(*drawn)
        n = got.d + got.n_extra
        A_ub, b_ub, A_eq, b_eq, lb, ub = ref.assemble()
        for rows, A, b in ((got.rows_ub, A_ub, b_ub), (got.rows_eq, A_eq, b_eq)):
            S, rhs = csr_rows(rows, n)
            assert np.array_equal(S.toarray(), A)
            assert rhs.tobytes() == b.tobytes()
            # canonical: what csr_array(dense) holds — no stored zero,
            # columns ascending within each row
            D = sparse.csr_array(A)
            assert S.indptr.tolist() == D.indptr.tolist()
            assert S.indices.tolist() == D.indices.tolist()
            assert S.data.tobytes() == D.data.tobytes()

    #: Γ over these five grid points is degenerate: on the d-LP
    #: lexicographic selection ``central_point`` replaced, HiGHS with
    #: ``output_flag`` left on (``milp``'s default, not ``linprog``'s) ended
    #: its third stage on another optimal vertex, 1e-8 away.
    DEGENERATE = np.array(
        [[0.0, 0, 0], [1, 0, -1], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
    )

    @given(hull_systems())
    @example((3, 1, DEGENERATE, {}))
    @settings(max_examples=60, deadline=None)
    def test_central_point(self, drawn):
        got, ref = both_systems(*drawn)
        expected = ref.central_point()
        assert_same(got.central_point(), expected)
        assert got.feasible() == (expected is not None)

    @given(st.integers(0, 10_000), st.sampled_from([{}, {"delta": 0.5, "p": INF}]))
    @settings(max_examples=30, deadline=None)
    def test_minimize_pair_linf(self, seed, constraint):
        rng = np.random.default_rng(seed)
        got, ref = HullSystem(4), DenseHullSystem(4)
        for coords in ([0, 1], [2, 3], [0, 1]):
            pts = np.round(rng.normal(scale=2.0, size=(3, 2)))
            got.add_hull_constraint(pts, coords=coords, **constraint)
            ref.add_hull_constraint(pts, coords=coords, **constraint)
        a, b = got.minimize_pair_linf(2), ref.minimize_pair_linf(2)
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == b[0] and a[1].tobytes() == b[1].tobytes()


class TestNonFiniteNeverReachesTheSolver:
    C = np.array([1.0, 0.0])
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    B = np.array([1.0, 2.0])
    LB = np.array([0.0, -INF])
    UB = np.array([INF, 5.0])

    @pytest.fixture(autouse=True)
    def solver_must_not_run(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the solver was called")

        monkeypatch.setattr(lp, "milp", boom)

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF], ids=repr)
    @pytest.mark.parametrize("where", ["c", "A_ub", "b_ub", "A_eq", "b_eq"])
    def test_data(self, where, bad):
        parts = {"c": self.C.copy(), "A_ub": self.A.copy(), "b_ub": self.B.copy(),
                 "A_eq": self.A.copy(), "b_eq": self.B.copy()}
        parts[where][(0,) * parts[where].ndim] = bad
        with pytest.raises(ValueError):
            door_x(parts["c"], parts["A_ub"], parts["b_ub"], parts["A_eq"],
                   parts["b_eq"], self.LB, self.UB)

    @pytest.mark.parametrize(
        "lb0, ub0", [(math.nan, 1.0), (0.0, math.nan), (INF, INF), (-INF, -INF)]
    )
    def test_bounds(self, lb0, ub0):
        lb, ub = self.LB.copy(), self.UB.copy()
        lb[0], ub[0] = lb0, ub0
        with pytest.raises(ValueError):
            door_x(self.C, self.A, self.B, self.A, self.B, lb, ub)


class TestResidualVerdict:
    def test_an_optimum_that_misses_a_row_is_none(self, monkeypatch):
        """``linprog`` answers status 4 when the point HiGHS calls optimal
        violates a row or a bound by more than its tolerance; the door
        answers None (``central_point`` and ``gamma_point`` branch on
        it)."""
        from scipy.optimize import OptimizeResult

        c, lb, ub = np.array([1.0]), np.array([0.0]), np.array([INF])
        A, b = sparse.csr_array(np.array([[1.0]])), np.array([1.0])

        def answers(x):
            return lambda *a, **k: OptimizeResult(x=np.array([x]), success=True)

        monkeypatch.setattr(lp, "milp", answers(1.0 + 1e-3))
        assert solve_lp(c, A, b, None, None, lb, ub) is None  # slack
        assert solve_lp(c, None, None, A, b, lb, ub) is None  # equality
        monkeypatch.setattr(lp, "milp", answers(-1e-3))
        assert solve_lp(c, A, b, None, None, lb, ub) is None  # bound
        monkeypatch.setattr(lp, "milp", answers(math.nan))
        assert solve_lp(c, A, b, None, None, lb, ub) is None
        # inside the tolerance (HiGHS's own feasibility tolerance is 1e-7)
        monkeypatch.setattr(lp, "milp", answers(1.0 + 1e-7))
        assert solve_lp(c, A, b, None, None, lb, ub) is not None
        assert solve_lp(c, None, None, A, b, lb, ub) is not None


class TestOneDoor:
    def test_only_the_door_imports_an_lp_solver(self):
        """No module of ``src/repro`` but ``geometry/lp.py`` imports
        ``linprog`` or ``milp`` — under any spelling of the import — or
        reaches into SciPy's private HiGHS bindings."""
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        door = src / "geometry" / "lp.py"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                    module = node.module or ""
                elif isinstance(node, ast.Import):
                    names, module = set(), " ".join(a.name for a in node.names)
                elif isinstance(node, ast.Attribute):
                    names, module = {node.attr}, ""
                else:
                    continue
                if "_highspy" in module or (
                    path != door and names & {"linprog", "milp"}
                ):
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}")
        assert offenders == []
        assert door.exists()
