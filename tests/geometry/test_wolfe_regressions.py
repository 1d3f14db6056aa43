"""Regression tests for the Wolfe minimum-norm-point solver.

The instance below (a tight cluster of 7 honest points plus two wild
Byzantine outliers, f = 2) once drove the Wolfe outer loop to its
iteration cap with a support/weight length desync on the exhaustion
fallthrough.  It stays here to pin both the crash fix and the solver's
behaviour on ill-conditioned clustered inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import _wolfe_min_norm, nearest_point_l2
from repro.geometry.minimax import delta_star

CRASH_S = np.array(
    [
        [-0.1788012331399708, -0.006184417342105647, -0.6728069831389796, 1.1173450644171434, 0.20244678389948267],
        [-0.21591640841250412, -0.11300195989305623, -0.7229282779588344, 1.042356055065459, 0.23548501215470097],
        [-0.248864972092523, -0.06175506756024243, -0.7019951153473828, 1.0181498244427118, 0.29157505811651696],
        [-0.1859366036031573, -0.005558177210136399, -0.6921690373998304, 1.0582897759887226, 0.24217100353652832],
        [-0.28005590954967435, -0.03734705154764742, -0.6343988578214667, 1.0421798928887018, 0.25602867664882795],
        [-0.22726051940646513, -0.10789060605650763, -0.7385042450103376, 1.132374783914618, 0.2542779005262108],
        [-0.995080131807202, -0.2619336131477405, -0.12575915994983228, 1.5716288226775417, 1.3139690616874864],
        [-14.406738290996898, -30.908109660113197, 28.49679766350257, -81.35292462363984, -119.8092869321841],
        [-10.45906555987173, -71.25312534351288, 23.957339092210876, 36.25086225987791, -38.26654064408642],
    ]
)


#: Three 7-point sets in R^5 from ``tests/geometry/test_minimax.py``'s
#: δ* solves, already translated by -x (so x = 0), that once ran the outer
#: loop to its cap: x lies about 1e-12 from the hull, the gap test misses by
#: a gap / scale of 1e-14 to 3e-14, and each step added a point the line
#: search dropped again, leaving the point where it was.
STALL_SETS = [
    np.array(
        [
            [0.06299055670953763, 0.07447513899729996, 0.0069075168169319134, 0.04612982116733799, -0.04189938456246681],
            [0.025875381437004297, -0.03234240355365062, -0.04321377800292292, -0.028859188184346518, -0.008861156307248513],
            [-0.007073182243014592, 0.018904488779163175, -0.022280615391471303, -0.05306541880709359, 0.04722888965456748],
            [-0.03826411970016594, 0.04331250479175819, 0.04531564213444483, -0.029035350361103607, 0.011682508186878465],
            [0.014531270443043282, -0.027231049717102024, -0.058789745054426135, 0.06115954066481266, 0.009931732064261317],
            [-14.16494650114739, -30.827450103773792, 29.17651216345848, -82.42413986688965, -120.05363310064604],
            [-10.217273770022222, -71.17246578717346, 24.637053592166787, 35.17964701662811, -38.51088681254837],
        ]
    ),
    np.array(
        [
            [0.06298315724547202, 0.07413064453552776, 0.00704508201660059, 0.04695576079251618, -0.04101932378434334],
            [0.025867981972938686, -0.03268689801542282, -0.043076212803254244, -0.028033248559168333, -0.007981095529125043],
            [-0.007080581707080202, 0.01855999431739097, -0.022143050191802627, -0.052239479181915405, 0.04810895043269095],
            [-0.03827151916423155, 0.042968010329985984, 0.04545320733411351, -0.028209410735925422, 0.012562568965001936],
            [0.014523870978977671, -0.02757554417887423, -0.05865217985475746, 0.061985480289990846, 0.010811792842384788],
            [-14.164953900611456, -30.827794598235563, 29.17664972865815, -82.42331392726446, -120.05275303986792],
            [-10.217281169486288, -71.17281028163525, 24.637191157366455, 35.18047295625328, -38.51000675177024],
        ]
    ),
    np.array(
        [
            [0.0629349876723019, 0.07423390707057324, 0.007081234956241911, 0.04679172592057412, -0.041127797748487294],
            [0.025819812399768577, -0.032583635480377335, -0.04304005986361292, -0.028197283431110387, -0.008089569493269],
            [-0.007128751280250312, 0.018663256852436458, -0.022106897252161306, -0.05240351405385746, 0.04800047646854699],
            [-0.03831968873740166, 0.04307127286503147, 0.04548936027375483, -0.028373445607867476, 0.012454095000857979],
            [0.014475701405807562, -0.02747228164382874, -0.05861602691511614, 0.06182144541804879, 0.01070331887824083],
            [-14.165002070184626, -30.827691335700518, 29.17668588159779, -82.4234779621364, -120.05286151383207],
            [-10.217329339059457, -71.1727070191002, 24.6372273103061, 35.18030892138135, -38.51011522573439],
        ]
    ),
]


class TestWolfeRegression:
    def test_crash_instance_solves(self):
        res = delta_star(CRASH_S, 2)
        assert np.isfinite(res.value)
        assert res.value >= 0
        assert res.gap <= 1e-5  # certified near-optimal even here

    def test_wolfe_direct_on_cluster(self):
        """Projections from many probe points never desync."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=5) * rng.choice([0.1, 1.0, 50.0])
            out = _wolfe_min_norm(CRASH_S - x, tol=1e-14)
            assert out is not None
            y, lam = out
            assert lam.shape == (9,)
            assert lam.sum() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(lam @ (CRASH_S - x), y, atol=1e-8)

    def test_wolfe_matches_lp_on_cluster(self):
        """Euclidean distances from the cluster agree with the exact
        L_inf/L1 LP sandwich: d_inf <= d_2 <= d_1."""
        from repro.geometry.distance import distance_linf, distance_to_hull

        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=5) * 3
            d2 = nearest_point_l2(CRASH_S, x).distance
            assert distance_linf(CRASH_S, x) <= d2 + 1e-7
            assert d2 <= distance_to_hull(CRASH_S, x, 1).distance + 1e-7

    def test_duplicate_points(self):
        """Exact duplicates (multiset inputs) don't break the support
        bookkeeping."""
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        proj = nearest_point_l2(pts, np.array([2.0, 0.0]))
        assert proj.distance == pytest.approx(1.0)

    def test_nearly_identical_points(self):
        pts = np.ones((5, 3)) + 1e-14 * np.arange(15).reshape(5, 3)
        proj = nearest_point_l2(pts, np.array([2.0, 1.0, 1.0]))
        assert proj.distance == pytest.approx(1.0, rel=1e-9)


def _point_set(kind: str, rng: np.random.Generator) -> np.ndarray:
    """One point multiset of the named shape, at most 12 rows."""
    if kind == "cluster":  # CRASH_S: tight cluster plus two wild outliers
        return CRASH_S[rng.permutation(9)[: rng.integers(2, 10)]]
    m, d = int(rng.integers(2, 13)), int(rng.integers(1, 6))
    if kind == "random":
        return rng.normal(size=(m, d)) * rng.choice([0.1, 1.0, 50.0])
    if kind == "duplicated":
        rows = rng.normal(size=(int(rng.integers(1, m + 1)), d))
        return rows[rng.integers(0, rows.shape[0], size=m)]
    if kind == "collinear":
        return rng.normal(size=d) + rng.normal(size=(m, 1)) * rng.normal(size=d)
    return rng.integers(-2, 3, size=(m, d)).astype(float)  # integer grid


class TestWolfeCertificate:
    """``nearest_point_l2`` is the only p = 2 solver: each answer carries
    its own proof.  ``y = point - x`` is the minimum-norm point of the
    translated hull iff ``<y, p_j - x> >= ||y||^2`` for every point."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["random", "duplicated", "collinear", "grid", "cluster"]),
        where=st.sampled_from(["inside", "vertex", "outside"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_point_and_optimality(self, kind, where, seed):
        rng = np.random.default_rng(seed)
        pts = _point_set(kind, rng)
        m, d = pts.shape
        if where == "inside":
            x = rng.dirichlet(np.ones(m)) @ pts
        elif where == "vertex":
            x = pts[rng.integers(m)].copy()
        else:
            spread = max(1.0, float(np.abs(pts).max()))
            x = pts.mean(axis=0) + 10.0 * spread * rng.normal(size=d)
        proj = nearest_point_l2(pts, x)
        lam = proj.weights
        assert lam.shape == (m,)
        assert lam.min() >= 0.0
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        scale = max(1.0, float(np.max(np.sum((pts - x) ** 2, axis=1))))
        np.testing.assert_allclose(proj.point, pts.T @ lam, rtol=0, atol=1e-12 * np.sqrt(scale))
        y = proj.point - x
        gap = float(y @ y) - float(np.min((pts - x) @ y))
        assert gap <= 1e-12 * scale


class TestStalledStep:
    """A step that leaves the support and weights where they were would
    repeat to the cap; the loop stops there, with the cap's answer."""

    @pytest.mark.parametrize("index", range(len(STALL_SETS)))
    def test_stall_ends_well_under_the_cap(self, monkeypatch, index):
        P = STALL_SETS[index]
        solves = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            solves.append(1)
            return lstsq(*args, **kwargs)

        # one affine solve per inner pass: the cap (200 steps) took ~200
        monkeypatch.setattr(np.linalg, "lstsq", counting)
        proj = nearest_point_l2(P, np.zeros(5))
        monkeypatch.undo()
        assert len(solves) <= 10
        lam = proj.weights
        assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert proj.distance < 1e-11
        # TestWolfeCertificate's optimality bound
        scale = max(1.0, float(np.max(np.sum(P**2, axis=1))))
        y = proj.point
        assert float(y @ y) - float(np.min(P @ y)) <= 1e-12 * scale
