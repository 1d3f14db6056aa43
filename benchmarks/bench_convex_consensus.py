"""Experiment E-CHC (extension) — Byzantine convex hull consensus.

The paper's §2 cites Convex Hull Consensus (Tseng & Vaidya [16, 15]):
agree on a *polytope* inside the honest hull, with the same tight bound
``n >= max(3f+1, (d+1)f+1)`` as vector consensus.  This bench runs the
synchronous set-valued algorithm end-to-end and reports the agreed
polytope's size, plus the generalisation relation: the vector algorithms'
decisions always lie inside the agreed polytope.
"""

from __future__ import annotations

import numpy as np

from repro.core.convex_consensus import (
    ConvexConsensusProcess,
    check_convex_consensus,
    convex_consensus_decision,
)
from repro.core.exact_bvc import exact_bvc_decision
from repro.system import Adversary, MutateStrategy, SilentStrategy, SynchronousScheduler

from ._util import report, rng_for


def _run(inputs, f, adversary=None, seed=0):
    n = inputs.shape[0]
    procs = [ConvexConsensusProcess(n, f, pid, inputs[pid]) for pid in range(n)]
    sched = SynchronousScheduler(procs, f, adversary, rng=np.random.default_rng(seed))
    res = sched.run()
    honest = np.array(
        [inputs[p] for p in range(n) if not (adversary and adversary.is_faulty(p))]
    )
    return res.correct_decisions, honest


class TestConvexConsensus:
    def test_end_to_end(self):
        rows = []
        for d, n in [(2, 5), (2, 6), (3, 7)]:
            for name, strat in [
                ("honest", None),
                ("silent", SilentStrategy()),
                ("lie", MutateStrategy(
                    lambda tag, p, rng: (p[0], tuple(v + 7.0 for v in p[1]))
                    if p[1] is not None else p
                )),
            ]:
                rng = rng_for(f"chc-{d}-{n}-{name}")
                inputs = rng.normal(size=(n, d))
                adv = (
                    Adversary(faulty=[n - 1])
                    if strat is None
                    else Adversary(faulty=[n - 1], strategy=strat)
                )
                decisions, honest = _run(inputs, 1, adv)
                agreement, validity = check_convex_consensus(honest, decisions)
                poly = next(iter(decisions.values()))
                rows.append([d, n, name, poly.num_vertices,
                             "OK" if agreement and validity else "FAILED"])
                assert agreement and validity, f"d={d} n={n} {name}"
        report(
            "Convex hull consensus (Γ(S) as the agreed polytope): "
            "agreement + containment in the honest hull",
            ["d", "n", "adversary", "polytope vertices", "verdict"],
            rows,
        )

    def test_generalises_vector_consensus(self):
        """Every exact-BVC decision point lies inside the agreed polytope
        computed from the same multiset — convex consensus is the
        set-valued generalisation [16] describes."""
        rows = []
        for d, n in [(2, 4), (2, 6), (3, 5)]:
            ok_all = True
            for i in range(5):
                rng = rng_for(f"chc-gen-{d}-{n}", i)
                S = rng.normal(size=(n, d))
                poly = convex_consensus_decision(S, 1)
                point = exact_bvc_decision(S, 1)
                ok_all &= poly.contains(point, tol=1e-5)
            rows.append([d, n, 5, "OK" if ok_all else "MISMATCH"])
            assert ok_all
        report(
            "Vector-consensus decisions are contained in the convex-"
            "consensus polytope (same multiset)",
            ["d", "n", "trials", "verdict"],
            rows,
        )
