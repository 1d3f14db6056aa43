"""Experiment E-ITER (extension) — iterative BVC in incomplete graphs.

The paper's related work (§2) cites Vaidya 2014's iterative Byzantine
vector consensus, noting "there is a gap between these necessary and
sufficient conditions."  This bench runs the iterative Γ-update algorithm
across topologies and fault patterns and makes three things visible:

1. on supported topologies (closed neighbourhood ≥ (d+1)f+1) with benign
   faults, ε-agreement is reached, with rounds growing with graph
   diameter;
2. validity holds on *every* topology and fault pattern (safety never
   traded for progress);
3. on sparse graphs with an equivocating Byzantine neighbour, convergence
   can stall above ε — the necessary-vs-sufficient gap, observed.
"""

from __future__ import annotations


from repro.system.adversary import Adversary, EquivocateStrategy, SilentStrategy
from repro.system.topology import (
    complete_topology,
    random_regular_topology,
    ring_lattice_topology,
    wheel_of_cliques_topology,
)

from ._util import report, rng_for, run_spec


def equivocate(tag, payload, dst, rng):
    return tuple(v + dst * 3.0 for v in payload)


class TestIterative:
    def test_topology_sweep(self):
        rows = []
        d, f, eps = 2, 1, 1e-2
        cases = [
            ("complete n=6", complete_topology(6), 6),
            ("6-regular n=9", random_regular_topology(9, 6, seed=2), 9),
            ("wheel 3x4 n=12", wheel_of_cliques_topology(3, 4), 12),
            ("ring k=2 n=8", ring_lattice_topology(8, 2), 8),
        ]
        for name, topo, n in cases:
            rng = rng_for(f"iter-{name}")
            inputs = rng.normal(size=(n, d))
            adv = Adversary(faulty=[n - 1], strategy=SilentStrategy())
            out = run_spec(
                algorithm="iterative", inputs=inputs, f=f, topology=topo,
                rounds=60, epsilon=eps, adversary=adv,
            )
            supported = topo.supports_iterative_bvc(d, f)
            rows.append([
                name, topo.min_degree(), topo.diameter(),
                "yes" if supported else "no",
                out.report.agreement_diameter,
                "OK" if out.report.validity_ok else "VALIDITY-FAIL",
            ])
            assert out.report.validity_ok
            if supported:
                assert out.report.agreement_ok, name
        report(
            "Iterative BVC (silent fault): convergence vs topology "
            "(d=2, f=1, 60 rounds, eps=1e-2)",
            ["topology", "min deg", "diameter", "supported",
             "final diameter", "validity"],
            rows,
        )

    def test_gap_visible_with_equivocation(self):
        """The necessary/sufficient gap: an equivocating neighbour can
        stall sparse-graph convergence even where the degree condition
        holds — while the complete graph still converges and validity
        never breaks anywhere."""
        rows = []
        d, f, eps = 2, 1, 1e-2
        cases = [
            ("complete n=9", complete_topology(9)),
            ("6-regular n=9", random_regular_topology(9, 6, seed=1)),
        ]
        stalled_somewhere = False
        for name, topo in cases:
            diams = []
            for i in range(4):
                rng = rng_for(f"iter-gap-{name}", i)
                inputs = rng.normal(size=(9, d))
                adv = Adversary(
                    faulty=[8], strategy=EquivocateStrategy(equivocate)
                )
                out = run_spec(
                    algorithm="iterative", inputs=inputs, f=f, topology=topo,
                    rounds=60, epsilon=eps, adversary=adv,
                )
                assert out.report.validity_ok, f"{name} trial {i}"
                diams.append(out.report.agreement_diameter)
            converged = sum(1 for x in diams if x <= eps)
            stalled_somewhere |= converged < len(diams)
            rows.append([name, topo.supports_iterative_bvc(d, f),
                         f"{converged}/{len(diams)}", max(diams)])
        report(
            "Iterative BVC under an equivocating neighbour: the "
            "necessary-vs-sufficient gap (validity always holds; "
            "ε-agreement may stall on sparse graphs)",
            ["topology", "degree condition", "converged", "worst diameter"],
            rows,
        )

    def test_rounds_vs_diameter(self):
        """Failure-free convergence rounds grow with the graph diameter."""
        rows = []
        d, eps = 2, 1e-3
        for name, topo in [
            ("complete n=12", complete_topology(12)),
            ("wheel 3x4 n=12", wheel_of_cliques_topology(3, 4)),
            ("wheel 6x2 n=12", wheel_of_cliques_topology(6, 2)),
        ]:
            rng = rng_for(f"iter-diam-{name}")
            inputs = rng.normal(size=(12, d))
            # measure the first round count achieving eps (probe doubling)
            rounds_needed = None
            for rounds in (5, 10, 20, 40, 80):
                out = run_spec(
                    algorithm="iterative", inputs=inputs, f=1, topology=topo,
                    rounds=rounds, epsilon=eps,
                )
                if out.report.agreement_diameter <= eps:
                    rounds_needed = rounds
                    break
            rows.append([name, topo.diameter(),
                         rounds_needed if rounds_needed else ">80"])
            assert rounds_needed is not None
        report(
            "Iterative BVC failure-free: rounds to eps=1e-3 vs diameter",
            ["topology", "diameter", "rounds (probed)"],
            rows,
        )
