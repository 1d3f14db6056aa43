"""Span sinks observe a sweep without changing it.

Same contract as the probe/causal identity suite: installing either sink
of ``trace_span`` — a ``Tracer`` or a ``PhaseProfiler`` — yields
bit-identical decision vectors, because a sink only reads clocks around
spans — it never touches algorithm state or RNG streams.
"""

from __future__ import annotations

from repro.exec import SweepGrid, run_grid
from repro.obs.perf import PhaseProfiler, use_profiler
from repro.obs.tracer import Tracer, use_tracer


def _grid(**kw) -> SweepGrid:
    base = dict(
        algorithms=("algo", "averaging"),
        sizes=(6,),
        dimensions=(2,),
        faults=(1,),
        adversaries=("none",),
        reps=2,
        base_seed=123,
    )
    base.update(kw)
    return SweepGrid(**base)


class TestDigestIdentity:
    def test_perf_timers_do_not_move_the_decisions_digest(self):
        plain = run_grid(_grid())
        prof = PhaseProfiler()
        with use_profiler(prof):
            profiled = run_grid(_grid())
        tracer = Tracer()
        with use_tracer(tracer):
            traced = run_grid(_grid())
        assert (plain.decisions_digest() == profiled.decisions_digest()
                == traced.decisions_digest())
        # and both sinks actually saw the sweep — the identity is not
        # vacuous because instrumentation silently stayed off
        assert len(prof) > 0
        assert tracer.spans

    def test_profiler_composes_with_probes(self):
        plain = run_grid(_grid())
        with use_profiler(PhaseProfiler()):
            both = run_grid(_grid(probes=("all",)))
        assert plain.decisions_digest() == both.decisions_digest()
        assert both.probe_violations == 0
