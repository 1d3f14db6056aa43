"""Sim-vs-live conformance: the same specs decide on both backends.

Honest runs of the four headline algorithms execute over real loopback
sockets (``transport="live-uds"``, plus one TCP case) with the validity
envelope probe attached, and must reach decisions the probe accepts.
``SimTransport`` must stay bit-identical to the pinned sweep digest.
Live runs are real concurrency — the assertions here are about protocol
outcomes (agreement, validity, termination), never about schedules.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import RunSpec, run
from repro.core.exact_bvc import ExactBVCProcess
from repro.exec import (
    SweepGrid,
    build_topology,
    load_topology,
    run_grid,
    write_topology,
)
from repro.exec.live_launch import allocate_addresses
from repro.system.adversary import Adversary, SilentStrategy
from repro.system.topology import ring_lattice_topology
from repro.system.transport.base import (
    TransportError,
    get_transport,
    transport_names,
)
from repro.system.transport.live import LiveTransport, node_seeds


class TestRegistry:
    def test_shipped_backends(self):
        assert transport_names() == ("live-tcp", "live-uds", "sim")

    def test_unknown_name_is_value_error_with_choices(self):
        with pytest.raises(ValueError, match="choices"):
            get_transport("carrier-pigeon")

    def test_determinism_flags(self):
        assert get_transport("sim").deterministic
        assert not get_transport("live-tcp").deterministic
        assert not get_transport("live-uds").deterministic

    def test_backend_names_self_identify(self):
        for name in transport_names():
            assert get_transport(name).name == name


#: (algorithm, spec knobs) — sizes span 4..7 nodes per the acceptance
#: criteria; exact uses d=2 so n=5 clears its (d+1)f+1 floor.
LIVE_CASES = [
    ("exact", dict(n=5, d=2, f=1)),
    ("algo", dict(n=4, d=3, f=1, p=2.0)),
    ("krelaxed", dict(n=6, d=4, f=1, k=1)),
    ("averaging", dict(n=7, d=2, f=2, epsilon=5e-2)),
]


class TestLiveConformance:
    @pytest.mark.parametrize(
        "algorithm,knobs", LIVE_CASES, ids=[c[0] for c in LIVE_CASES]
    )
    def test_honest_decision_over_uds(self, algorithm, knobs):
        outcome = run(
            RunSpec(
                algorithm=algorithm,
                seed=7,
                transport="live-uds",
                probes=("validity",),
                **knobs,
            )
        )
        assert outcome.result.completed
        assert outcome.ok, outcome.report
        assert outcome.probe_violations == 0
        report = outcome.probe_reports[0]
        assert report.name == "validity" and report.checks > 0

    def test_honest_decision_over_tcp(self):
        outcome = run(
            RunSpec(
                algorithm="algo", n=4, d=2, f=1, seed=11,
                transport="live-tcp", probes=("validity",),
            )
        )
        assert outcome.result.completed and outcome.ok
        assert outcome.result.metrics.counter_value("net.live.handshakes") > 0

    def test_live_matches_sim_verdicts(self):
        # Live schedules differ from simulated ones, so decisions need
        # not match bit-for-bit — but both backends must satisfy the
        # same correctness envelope on the same inputs.
        spec = RunSpec(algorithm="exact", n=5, d=2, f=1, seed=3)
        sim = run(spec)
        live = run(
            RunSpec(algorithm="exact", n=5, d=2, f=1, seed=3,
                    transport="live-uds")
        )
        assert sim.ok and live.ok
        np.testing.assert_array_equal(sim.honest_inputs, live.honest_inputs)

    def test_disconnect_survival(self):
        # Force node 0 to drop its link to node 1 mid-run; the run must
        # still decide, riding the reconnect + retransmission path.
        transport = LiveTransport(
            kind="uds", chaos_drop_link=(0, 1), chaos_drop_after=2
        )
        n, f, d = 5, 1, 2
        inputs = np.random.default_rng(5).normal(size=(n, d))
        processes = [
            ExactBVCProcess(n, f, pid, inputs[pid]) for pid in range(n)
        ]
        result = transport.run_sync(processes, f, seed=5)
        assert result.completed
        decisions = list(result.decisions.values())
        assert len(decisions) == n
        for vec in decisions[1:]:
            np.testing.assert_array_equal(vec, decisions[0])
        assert result.metrics.counter_value("net.live.chaos_closes") == 1
        assert result.metrics.counter_value("net.live.reconnects") >= 1


class TestLiveRejections:
    def test_adversary_requires_simulator(self):
        with pytest.raises(TransportError, match="honest"):
            run(
                RunSpec(
                    algorithm="algo", n=4, d=2, f=1,
                    adversary=Adversary(faulty=[3], strategy=SilentStrategy()),
                    transport="live-uds",
                )
            )

    def test_incomplete_topology_requires_simulator(self):
        n, f = 6, 1
        inputs = np.zeros((n, 2))
        processes = [
            ExactBVCProcess(n, f, pid, inputs[pid]) for pid in range(n)
        ]
        with pytest.raises(TransportError, match="complete graph"):
            LiveTransport(kind="uds").run_sync(
                processes, f, topology=ring_lattice_topology(n, 1)
            )

    def test_delivery_policy_requires_simulator(self):
        from repro.system.scheduler import FifoPolicy

        with pytest.raises(TransportError, match="simulator"):
            LiveTransport(kind="uds").run_async([], 0, policy=FifoPolicy())


class TestSimDigest:
    #: The 72-trial behavioural-contract grid and its decisions digest,
    #: side by side: a deliberate re-cut is a one-line diff here.
    GRID = SweepGrid(
        algorithms=("algo", "exact", "krelaxed"),
        dimensions=(3, 4),
        faults=(1,),
        sizes=(10, 12),
        adversaries=("none", "silent", "mutate"),
        reps=2,
        base_seed=2016,
        epsilon=0.05,
    )
    DIGEST = "d0f76da4316316d1daf1f38ca7410f70af3b51a122afb47ca1a320208c496a35"

    def test_sim_transport_reproduces_committed_sweep_digest(self):
        # The whole sweep engine routes through SimTransport; the
        # decision digest of the contract grid must be unchanged.
        result = run_grid(self.GRID)
        assert result.trial_count == 72
        assert result.decisions_digest() == self.DIGEST

    def test_sim_runs_are_repeatable(self):
        spec = RunSpec(algorithm="krelaxed", n=6, d=3, f=1, seed=9)
        a, b = run(spec), run(spec)
        for pid in a.decisions:
            np.testing.assert_array_equal(a.decisions[pid], b.decisions[pid])


class TestNodeSeeds:
    def test_every_node_derives_the_same_table(self):
        assert node_seeds(42, 5) == node_seeds(42, 5)
        assert node_seeds(42, 5) != node_seeds(43, 5)
        assert len(set(node_seeds(0, 7))) == 7


class TestTopologyFiles:
    def _nodes(self, tmp_path, n):
        return allocate_addresses(n, "uds", base_dir=str(tmp_path))

    @staticmethod
    def _spec(algorithm, n=4, d=2, f=1, **knobs):
        return RunSpec(algorithm=algorithm, n=n, d=d, f=f, epsilon=5e-2, **knobs)

    def test_round_trip(self, tmp_path):
        doc = build_topology(
            self._spec("averaging", seed=3), self._nodes(tmp_path, 4), kind="uds"
        )
        path = tmp_path / "topology.json"
        write_topology(path, doc)
        assert load_topology(path) == doc

    def test_averaging_rounds_resolved_at_build_time(self, tmp_path):
        # Subprocess nodes must agree on the round budget without
        # coordinating, so it is computed once and written into the doc.
        doc = build_topology(
            self._spec("averaging", seed=3), self._nodes(tmp_path, 4), kind="uds"
        )
        assert int(doc["rounds"]) >= 1

    def test_build_validation(self, tmp_path):
        nodes = self._nodes(tmp_path, 4)
        # An unknown algorithm, scalar at d != 1, ... never get as far as
        # a document: the RunSpec it is built from refuses them.
        with pytest.raises(ValueError, match="unknown algorithm"):
            self._spec("nope")
        with pytest.raises(ValueError, match="scalar"):
            self._spec("scalar")
        with pytest.raises(ValueError, match="kind"):
            build_topology(self._spec("algo"), nodes, kind="smoke-signals")
        with pytest.raises(ValueError, match="n >="):
            build_topology(self._spec("exact", d=3), nodes, kind="uds")
        with pytest.raises(ValueError, match="node addresses"):
            build_topology(self._spec("algo"), nodes[:3], kind="uds")

    def test_load_rejects_tampered_docs(self, tmp_path):
        doc = build_topology(
            self._spec("algo"), self._nodes(tmp_path, 4), kind="uds"
        )
        path = tmp_path / "topology.json"

        bad = dict(doc, schema="something/else")
        write_topology(path, doc)  # sanity: the good doc loads
        load_topology(path)
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="schema"):
            load_topology(path)

        missing = {k: v for k, v in doc.items() if k != "seed"}
        path.write_text(json.dumps(missing))
        with pytest.raises(ValueError, match="seed"):
            load_topology(path)

    def test_tcp_addresses_are_distinct(self):
        addrs = allocate_addresses(5, "tcp")
        ports = [a.port for a in addrs]
        assert len(set(ports)) == 5 and all(p > 0 for p in ports)
