"""RunSpec: validation, input derivation, and the one verdict per run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    DeltaPExactBVC,
    ProblemSpec,
    RunSpec,
    headroom,
    run,
)
from repro.obs.metrics import MetricsRegistry
from repro.system.adversary import Adversary


class TestRunSpecValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            RunSpec(algorithm="nope", n=4, d=2)

    def test_all_algorithm_names_accepted(self):
        for name in ALGORITHMS:
            spec = RunSpec(algorithm=name, n=5, d=1)
            assert spec.algorithm == name

    def test_needs_inputs_or_shape(self):
        with pytest.raises(ValueError, match="either inputs or both"):
            RunSpec(algorithm="algo")
        with pytest.raises(ValueError, match="either inputs or both"):
            RunSpec(algorithm="algo", n=4)

    def test_shape_consistency_checked(self, rng):
        inputs = rng.normal(size=(4, 2))
        spec = RunSpec(algorithm="algo", inputs=inputs, n=4, d=2)
        assert (spec.n, spec.d) == (4, 2)
        with pytest.raises(ValueError, match="disagrees"):
            RunSpec(algorithm="algo", inputs=inputs, n=5)
        with pytest.raises(ValueError, match="disagrees"):
            RunSpec(algorithm="algo", inputs=inputs, d=3)

    def test_scalar_requires_d1(self):
        with pytest.raises(ValueError, match="scalar"):
            RunSpec(algorithm="scalar", n=4, d=2)

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="f must be"):
            RunSpec(algorithm="algo", n=4, d=2, f=-1)
        with pytest.raises(ValueError, match="k must be"):
            RunSpec(algorithm="algo", n=4, d=2, k=0)
        with pytest.raises(ValueError, match="delta must be"):
            RunSpec(algorithm="algo", n=4, d=2, delta=-0.1)
        with pytest.raises(ValueError, match="epsilon must be"):
            RunSpec(algorithm="algo", n=4, d=2, epsilon=0.0)
        with pytest.raises(ValueError, match="rounds must be"):
            RunSpec(algorithm="iterative", n=4, d=2, rounds=0)

    def test_inputs_frozen_readonly(self, rng):
        raw = rng.normal(size=(4, 2))
        spec = RunSpec(algorithm="algo", inputs=raw)
        with pytest.raises(ValueError):
            spec.inputs[0, 0] = 99.0
        # and it is a copy: mutating the caller's array cannot leak in
        raw[0, 0] = 99.0
        assert spec.inputs[0, 0] != 99.0

    def test_resolved_inputs_derivation(self):
        spec = RunSpec(algorithm="algo", n=5, d=3, seed=42, input_scale=2.0)
        expected = np.random.default_rng(42).normal(scale=2.0, size=(5, 3))
        np.testing.assert_array_equal(spec.resolved_inputs(), expected)
        # ... which is the one derivation the DST scenarios share
        from repro.dst.scenarios import Scenario

        scenario = Scenario("algo", n=5, d=3, f=1, seed=42, input_scale=2.0)
        assert scenario.inputs().tobytes() == expected.tobytes()
        # explicit inputs win
        pinned = RunSpec(algorithm="algo", inputs=np.zeros((4, 2)), seed=42)
        assert pinned.resolved_inputs().shape == (4, 2)
        assert (pinned.n, pinned.d) == (4, 2)

    def test_broadcast_validation(self):
        spec = RunSpec(algorithm="algo", n=4, d=2, broadcast="dolev-strong")
        assert spec.broadcast == "dolev-strong"
        with pytest.raises(ValueError, match="unknown broadcast"):
            RunSpec(algorithm="algo", n=4, d=2, broadcast="smoke-signals")

    def test_transport_validation(self):
        for name in ("sim", "live-tcp", "live-uds"):
            assert RunSpec(algorithm="algo", n=4, d=2,
                           transport=name).transport == name
        with pytest.raises(ValueError, match="unknown transport"):
            RunSpec(algorithm="algo", n=4, d=2, transport="carrier-pigeon")

    def test_transport_rejects_legacy_broadcast_values(self):
        # A broadcast primitive's name is not an execution backend: it
        # must fail loudly, not silently pick a backend.
        for legacy in ("eig", "dolev-strong", "atomic"):
            with pytest.raises(ValueError, match="unknown transport"):
                RunSpec(algorithm="algo", n=4, d=2, transport=legacy)



class TestOneVerdictPerRun:
    """``run`` judges an outcome once, at the δ the run achieved."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_check_call(self, algorithm, monkeypatch):
        calls = []
        real = ProblemSpec.check

        def counting(self, *args, **kwargs):
            report = real(self, *args, **kwargs)
            calls.append((self, report))
            return report

        monkeypatch.setattr(ProblemSpec, "check", counting)
        out = run(RunSpec(algorithm=algorithm, n=6,
                          d=1 if algorithm == "scalar" else 2, f=1, seed=9,
                          epsilon=5e-2))
        assert len(calls) == 1
        judged, report = calls[0]
        assert out.report is report and out.problem is judged

    def test_algo_report_is_the_achieved_delta_check(self, rng):
        inputs = rng.normal(size=(4, 3))
        out = run(RunSpec(algorithm="algo", inputs=inputs, f=1,
                          adversary=Adversary(faulty=[3]), seed=1))
        assert out.delta_used > 0
        spec = DeltaPExactBVC(3, 1, delta=headroom(out.delta_used), p=2)
        assert out.problem == spec
        assert out.report == spec.check(
            out.honest_inputs, out.decisions, terminated=out.result.completed
        )


class TestMetricsInstall:
    def test_spec_registry_receives_run_metrics(self, rng):
        reg = MetricsRegistry()
        out = run(RunSpec(algorithm="algo", inputs=rng.normal(size=(4, 2)),
                          f=1, metrics=reg))
        assert out.metrics is reg
        assert reg.counter_value("net.messages_sent") > 0
