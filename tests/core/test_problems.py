"""Tests for problem specs and their validity/agreement checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.problems import (
    ApproximateBVC,
    DeltaPApproximateBVC,
    DeltaPExactBVC,
    ExactBVC,
    KRelaxedApproximateBVC,
    KRelaxedExactBVC,
    agreement_diameter,
    broadcast_conflicts,
    headroom,
    problem_for,
)

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestAgreementDiameter:
    def test_identical(self):
        decs = {0: np.array([1.0, 2.0]), 1: np.array([1.0, 2.0])}
        assert agreement_diameter(decs) == 0.0

    def test_linf_semantics(self):
        decs = {0: np.array([0.0, 0.0]), 1: np.array([0.3, -0.7])}
        assert agreement_diameter(decs) == pytest.approx(0.7)

    def test_single(self):
        assert agreement_diameter({0: np.array([5.0])}) == 0.0


class TestExactBVC:
    def test_pass(self):
        spec = ExactBVC(2, 1)
        center = TRIANGLE.mean(axis=0)
        rep = spec.check(TRIANGLE, {0: center, 1: center})
        assert rep.ok

    def test_agreement_failure(self):
        spec = ExactBVC(2, 1)
        rep = spec.check(
            TRIANGLE, {0: TRIANGLE[0], 1: TRIANGLE[1]}
        )
        assert not rep.agreement_ok
        assert rep.validity_ok  # both are vertices, hence valid

    def test_validity_failure_reports_violation(self):
        spec = ExactBVC(2, 1)
        outside = np.array([5.0, 5.0])
        rep = spec.check(TRIANGLE, {0: outside, 1: outside})
        assert not rep.validity_ok
        assert rep.violations[0] > 1.0

    def test_termination_flag(self):
        spec = ExactBVC(2, 1)
        c = TRIANGLE.mean(axis=0)
        rep = spec.check(TRIANGLE, {0: c}, terminated=False)
        assert not rep.termination_ok
        assert not rep.ok

    def test_no_decisions_not_terminated(self):
        spec = ExactBVC(2, 1)
        rep = spec.check(TRIANGLE, {})
        assert not rep.termination_ok

    def test_dimension_validation(self):
        spec = ExactBVC(3, 1)
        with pytest.raises(ValueError):
            spec.check(TRIANGLE, {})
        with pytest.raises(ValueError):
            ExactBVC(2, 1).check(TRIANGLE, {0: np.zeros(3)})

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            ExactBVC(0, 1)
        with pytest.raises(ValueError):
            ExactBVC(2, -1)


class TestApproximateBVC:
    def test_epsilon_agreement(self):
        spec = ApproximateBVC(2, 1, epsilon=0.5)
        a = TRIANGLE.mean(axis=0)
        b = a + 0.3
        rep = spec.check(TRIANGLE, {0: a, 1: np.clip(b, 0, 0.4)})
        assert rep.agreement_ok

    def test_epsilon_violated(self):
        spec = ApproximateBVC(2, 1, epsilon=0.1)
        rep = spec.check(TRIANGLE, {0: TRIANGLE[0], 1: TRIANGLE[1]})
        assert not rep.agreement_ok

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            ApproximateBVC(2, 1, epsilon=0.0)


class TestKRelaxed:
    def test_box_corner_valid_for_k1(self):
        """The bounding-box corner is 1-relaxed valid but not 2-relaxed."""
        corner = np.array([1.0, 1.0])
        rep1 = KRelaxedExactBVC(2, 1, k=1).check(TRIANGLE, {0: corner, 1: corner})
        assert rep1.validity_ok
        rep2 = KRelaxedExactBVC(2, 1, k=2).check(TRIANGLE, {0: corner, 1: corner})
        assert not rep2.validity_ok

    def test_k_bounds_validated(self):
        with pytest.raises(ValueError):
            KRelaxedExactBVC(2, 1, k=3)
        with pytest.raises(ValueError):
            KRelaxedExactBVC(2, 1, k=0)

    def test_approximate_variant(self):
        spec = KRelaxedApproximateBVC(2, 1, k=1, epsilon=0.2)
        corner = np.array([1.0, 1.0])
        rep = spec.check(TRIANGLE, {0: corner, 1: corner - 0.1})
        assert rep.agreement_ok and rep.validity_ok


class TestDeltaP:
    def test_within_delta_valid(self):
        spec = DeltaPExactBVC(2, 1, delta=0.5, p=2)
        point = np.array([-0.3, -0.3])  # dist to triangle = 0.3*sqrt2 < 0.5
        rep = spec.check(TRIANGLE, {0: point, 1: point})
        assert rep.validity_ok

    def test_beyond_delta_invalid(self):
        spec = DeltaPExactBVC(2, 1, delta=0.1, p=2)
        point = np.array([-0.3, -0.3])
        rep = spec.check(TRIANGLE, {0: point, 1: point})
        assert not rep.validity_ok
        assert rep.violations[0] == pytest.approx(0.3 * math.sqrt(2) - 0.1, abs=1e-6)

    def test_norm_matters(self):
        """The same point can be δ-valid under L_inf but not under L1."""
        point = np.array([-0.3, -0.3])
        ok_inf = DeltaPExactBVC(2, 1, delta=0.35, p=math.inf).check(
            TRIANGLE, {0: point}
        )
        assert ok_inf.validity_ok
        bad_l1 = DeltaPExactBVC(2, 1, delta=0.35, p=1).check(TRIANGLE, {0: point})
        assert not bad_l1.validity_ok

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            DeltaPExactBVC(2, 1, delta=-0.1)

    def test_approximate_combines_both(self):
        spec = DeltaPApproximateBVC(2, 1, delta=0.5, p=2, epsilon=0.05)
        a = np.array([-0.2, -0.2])
        rep = spec.check(TRIANGLE, {0: a, 1: a + 0.01})
        assert rep.ok
        rep2 = spec.check(TRIANGLE, {0: a, 1: a + 0.2})
        assert not rep2.agreement_ok


class TestCheckDecisions:
    """The decision maps the probes used to re-evaluate on their own
    (``Probe.check_decisions``) — now plain ``ProblemSpec.check`` inputs."""

    def test_validity_flags_decision_outside_envelope(self):
        spec = DeltaPExactBVC(2, 1, delta=0.0, p=2.0)
        rep = spec.check(np.zeros((4, 2)), {0: np.array([50.0, 0.0])})
        assert not rep.validity_ok
        assert rep.violations == {0: pytest.approx(50.0)}

    def test_validity_accepts_decision_in_hull(self):
        spec = DeltaPExactBVC(2, 1, delta=0.0, p=2.0)
        rep = spec.check(TRIANGLE, {0: np.array([0.25, 0.25])})
        assert rep.validity_ok and not rep.violations

    def test_agreement_flags_split_decisions(self):
        spec = ExactBVC(2, 1)
        rep = spec.check(
            np.array([[0.0, 0.0], [30.0, 0.0]]),
            {0: np.array([0.0, 0.0]), 1: np.array([30.0, 0.0])},
        )
        assert not rep.agreement_ok
        assert rep.agreement_diameter == 30.0 > spec.agreement_bound

    def test_agreement_accepts_epsilon_spread(self):
        spec = ApproximateBVC(1, 1, epsilon=0.5)
        rep = spec.check(
            np.array([[0.0], [1.0]]), {0: np.array([0.0]), 1: np.array([0.4])}
        )
        assert rep.agreement_ok
        assert spec.agreement_bound == 0.5 + 1e-12


@dataclass(frozen=True)
class _Counting(ExactBVC):
    """ExactBVC that counts the geometric questions it is asked."""

    asked: list = field(default_factory=list, compare=False)

    def violation(self, decision, honest_inputs):
        self.asked.append(decision.tobytes())
        return super().violation(decision, honest_inputs)


def _reference_check(spec, honest, decisions):
    """``check`` as it was: one ``violation`` per pid, shared by nobody."""
    honest = np.atleast_2d(np.asarray(honest, dtype=float))
    decs = {pid: np.asarray(v, dtype=float).ravel() for pid, v in decisions.items()}
    violations = {}
    for pid, v in decs.items():
        viol = spec.violation(v, honest)
        if viol > spec.tol:
            violations[pid] = viol
    diam = agreement_diameter(decs)
    return (
        diam <= spec.agreement_bound, not violations, len(decs) > 0,
        float(diam).hex(), [(pid, float(v).hex()) for pid, v in violations.items()],
    )


class TestGeometryAskedOnce:
    """``check`` asks ``violation`` once per distinct decision (exact
    bytes), remembers nothing between calls, and reports what a per-pid
    loop reports."""

    HONEST = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [3.0, 3.0], [1.0, 2.0]])

    def test_identical_decisions_are_one_question(self):
        spec = _Counting(2, 1)
        point = np.array([1.0, 1.0])
        rep = spec.check(self.HONEST, {pid: point.copy() for pid in range(7)})
        assert rep.ok and len(spec.asked) == 1

    def test_distinct_decisions_are_one_question_each(self):
        spec = _Counting(2, 1)
        points = [np.array([1.0, 1.0]), np.array([9.0, 9.0]), np.array([2.0, 1.0])]
        rep = spec.check(self.HONEST, {pid: points[pid % 3] for pid in range(8)})
        assert len(spec.asked) == 3
        # every pid holding the invalid value is reported, with one float
        assert list(rep.violations) == [1, 4, 7]
        assert len({v.hex() for v in rep.violations.values()}) == 1

    def test_signed_zero_is_two_questions(self):
        spec = _Counting(1, 1)
        spec.check(np.array([[-1.0], [1.0]]), {0: np.array([0.0]), 1: np.array([-0.0])})
        assert len(spec.asked) == 2

    def test_nothing_is_remembered_between_checks(self):
        spec = _Counting(2, 1)
        decisions = {0: np.array([1.0, 1.0]), 1: np.array([1.0, 1.0])}
        spec.check(self.HONEST, decisions)
        spec.check(self.HONEST, decisions)
        assert len(spec.asked) == 2

    def test_measure_keeps_keys_and_order(self):
        spec = _Counting(2, 1)
        out = spec.measure(
            {("b", 2): [9.0, 9.0], ("a", 1): [1.0, 1.0], ("c", 0): [9.0, 9.0]},
            self.HONEST,
        )
        assert list(out) == [("b", 2), ("a", 1), ("c", 0)]
        assert out["b", 2] == out["c", 0] > 1.0 and out["a", 1] == 0.0
        assert len(spec.asked) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            ExactBVC(2, 1),
            KRelaxedExactBVC(3, 1, k=2),
            DeltaPExactBVC(2, 1, delta=0.3, p=1),
            DeltaPExactBVC(2, 1, delta=0.3, p=2),
            DeltaPExactBVC(2, 1, delta=0.3, p=math.inf),
            DeltaPApproximateBVC(2, 1, delta=0.3, p=2, epsilon=0.05),
        ],
        ids=["exact", "krelaxed-k2", "delta-p1", "delta-p2", "delta-pinf", "delta-approx"],
    )
    @pytest.mark.parametrize("case", ["all-valid", "one-off-by-2tol", "two-share-invalid"])
    def test_report_equals_the_per_pid_loop(self, spec, case):
        rng = np.random.default_rng(21)
        honest = rng.normal(scale=3.0, size=(6, spec.d))
        inside = honest.mean(axis=0)
        decisions = {pid: inside.copy() for pid in range(6)}
        if case == "one-off-by-2tol":
            # just past a vertex of the hull, along the outward direction
            vertex = honest[np.argmax(honest[:, 0])]
            step = np.zeros(spec.d)
            step[0] = getattr(spec, "delta", 0.0) + 2 * spec.tol
            decisions[3] = vertex + step
        elif case == "two-share-invalid":
            decisions[1] = decisions[4] = inside + 50.0
        rep = spec.check(honest, decisions)
        assert (
            rep.agreement_ok, rep.validity_ok, rep.termination_ok,
            float(rep.agreement_diameter).hex(),
            [(pid, float(v).hex()) for pid, v in rep.violations.items()],
        ) == _reference_check(spec, honest, decisions)
        if case == "all-valid":
            assert rep.ok
        else:
            expected = {"one-off-by-2tol": [3], "two-share-invalid": [1, 4]}[case]
            assert list(rep.violations) == expected


class TestProblemFor:
    """algorithm -> problem, against the paper's table."""

    KNOBS = dict(k=2, p=1, epsilon=0.05, delta=0.25)

    @pytest.mark.parametrize("algorithm, expected", [
        ("exact", ExactBVC(3, 1)),
        ("scalar", ExactBVC(3, 1)),
        ("algo", DeltaPExactBVC(3, 1, delta=0.25, p=1)),
        ("krelaxed", KRelaxedExactBVC(3, 1, k=2)),
        ("iterative", ApproximateBVC(3, 1, epsilon=0.05)),
        ("averaging", DeltaPApproximateBVC(3, 1, delta=0.25, p=1, epsilon=0.05)),
    ])
    def test_table(self, algorithm, expected):
        problem = problem_for(algorithm, 3, 1, **self.KNOBS)
        assert problem == expected and type(problem) is type(expected)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="paxos"):
            problem_for("paxos", 2, 1)

    def test_iterative_tolerance_grows_with_rounds(self):
        assert problem_for("iterative", 2, 1, rounds=3).tol == 1e-7
        assert problem_for("iterative", 2, 1, rounds=30).tol == 2e-8 * 30

    def test_headroom_value(self):
        assert headroom(0.0) == 1e-9
        assert headroom(0.5) == 0.5 * (1.0 + 1e-6) + 1e-9

    def test_achieved_delta_gets_headroom(self):
        base = problem_for("algo", 2, 1, delta=0.0)
        assert base.achieved(None) is base
        assert base.achieved(0.5) == DeltaPExactBVC(2, 1, delta=headroom(0.5), p=2)
        exact = problem_for("exact", 2, 1)
        assert exact.achieved(0.5) is exact  # no δ to relax

    def test_violation_is_what_check_reports(self):
        spec = DeltaPExactBVC(2, 1, delta=0.1, p=2)
        point = np.array([-0.3, -0.3])
        rep = spec.check(TRIANGLE, {7: point})
        assert rep.violations == {7: spec.violation(point, TRIANGLE)}


class TestBroadcastConflicts:
    def test_divergent_delivered_value(self):
        # three correct receivers of one Bracha instance, one diverges
        deliveries = {("bc", 0): {0: 1.0, 1: 2.0, 2: 1.0}}
        assert broadcast_conflicts(deliveries) == {("bc", 0): (0, 1)}

    def test_agreeing_and_array_values(self):
        S = np.array([[0.0, 1.0], [2.0, 3.0]])
        deliveries = {
            ("bc", 0): {0: 1.0, 1: 1.0},
            "multiset": {0: S, 1: S.copy()},
            ("bc", 1): {2: (0.5, 0.5)},  # a single receiver cannot conflict
        }
        assert broadcast_conflicts(deliveries) == {}
        deliveries["multiset"][1] = S + 1.0
        assert broadcast_conflicts(deliveries) == {"multiset": (0, 1)}

    def test_two_digests_to_different_receivers(self):
        sends = {(0, "bc:0", 0): {1: "aaaa", 2: "ffff"}}
        assert broadcast_conflicts(sends) == {(0, "bc:0", 0): (1, 2)}

    def test_resend_to_same_receiver_is_not_equivocation(self):
        # receiver-keyed evidence keeps one digest per receiver: a
        # sequential re-send cannot show a second face
        sends: dict = {}
        for dst, digest in [(1, "aaaa"), (1, "bbbb"), (2, "aaaa")]:
            sends.setdefault((0, "bc:0", 0), {}).setdefault(dst, digest)
        assert broadcast_conflicts(sends) == {}
