"""Probes and causal tracing observe a run without changing it.

The contract backing the sweep engine's digest exclusion: enabling any
combination of probes and the causal collector yields bit-identical
decision vectors, and the aggregated violation counts live outside the
identity record.
"""

from __future__ import annotations

from dataclasses import replace

from repro.exec import SweepGrid, run_grid
from repro.obs.causal import CausalCollector, use_causal_collector


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
    def test_probes_do_not_move_the_decisions_digest(self):
        plain = run_grid(_grid())
        probed = run_grid(_grid(probes=("all",)))
        assert plain.decisions_digest() == probed.decisions_digest()
        assert probed.probe_violations == 0

    def test_causal_collector_does_not_move_the_digest(self):
        plain = run_grid(_grid())
        with use_causal_collector(CausalCollector()):
            traced = run_grid(_grid())
        assert plain.decisions_digest() == traced.decisions_digest()

    def test_identity_record_excludes_probe_counts(self):
        probed = run_grid(_grid(probes=("all",)))
        trial = probed.trials[0]
        assert "probe_violations" not in trial.identity_record()
        bumped = replace(trial, probe_violations=99)
        assert bumped.identity_record() == trial.identity_record()


class TestAggregation:
    def test_summary_rolls_up_probe_violations(self):
        probed = run_grid(_grid(probes=("all",)))
        summary = probed.summary()
        assert summary["probe_violations"] == 0
        for agg in summary["per_algorithm"].values():
            assert agg["probe_violations"] == 0

    def test_grid_rejects_unknown_probe_name(self):
        import pytest

        with pytest.raises(ValueError):
            _grid(probes=("nonsense",))
