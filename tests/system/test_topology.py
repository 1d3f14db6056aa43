"""Tests for network topologies and topology-restricted scheduling."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.system.process import SyncProcess
from repro.system.scheduler import SynchronousScheduler
from repro.system.topology import (
    Topology,
    complete_topology,
    random_regular_topology,
    ring_lattice_topology,
    wheel_of_cliques_topology,
)


class TestTopology:
    def test_complete(self):
        t = complete_topology(5)
        assert t.min_degree() == 4
        assert t.neighbors(0) == (1, 2, 3, 4)
        assert t.allows(0, 3) and t.allows(2, 2)

    def test_ring_lattice(self):
        t = ring_lattice_topology(8, 2)
        assert t.min_degree() == 4
        assert t.allows(0, 1) and t.allows(0, 2)
        assert not t.allows(0, 4)

    def test_ring_lattice_validates(self):
        with pytest.raises(ValueError):
            ring_lattice_topology(6, 0)

    def test_random_regular_connected(self):
        t = random_regular_topology(10, 4, seed=3)
        assert nx.is_connected(t.graph)
        assert all(t.graph.degree[i] == 4 for i in range(10))

    def test_random_regular_rejects_degree(self):
        with pytest.raises(ValueError):
            random_regular_topology(4, 5)

    def test_wheel_of_cliques(self):
        t = wheel_of_cliques_topology(3, 3)
        assert t.n == 9
        assert nx.is_connected(t.graph)
        # inside a clique: connected; across non-adjacent cliques... with
        # 3 cliques every pair of cliques is adjacent, use 4
        t4 = wheel_of_cliques_topology(4, 2)
        assert not t4.allows(0, 4)  # clique 0 to clique 2 (opposite)

    def test_wheel_validates(self):
        with pytest.raises(ValueError):
            wheel_of_cliques_topology(2, 3)

    def test_node_labels_validated(self):
        g = nx.Graph()
        g.add_nodes_from([1, 2, 3])
        with pytest.raises(ValueError):
            Topology(g)

    def test_self_loops_rejected(self):
        g = nx.complete_graph(3)
        g.add_edge(1, 1)
        with pytest.raises(ValueError):
            Topology(g)

    def test_supports_iterative_bvc(self):
        assert complete_topology(5).supports_iterative_bvc(1, 1)  # deg+1=5 >= 3
        assert not ring_lattice_topology(8, 1).supports_iterative_bvc(2, 1)

    def test_diameter(self):
        assert complete_topology(4).diameter() == 1
        assert ring_lattice_topology(8, 1).diameter() == 4


class Probe(SyncProcess):
    """Sends to everyone; records who it hears from."""

    def on_round(self, ctx, r, inbox):
        if r == 0:
            ctx.broadcast("x", ctx.pid, round=0)
        elif r == 1:
            ctx.decide(tuple(sorted(inbox)))


class TestTopologyScheduling:
    def test_messages_dropped_across_missing_edges(self):
        topo = ring_lattice_topology(5, 1)
        procs = [Probe() for _ in range(5)]
        res = SynchronousScheduler(procs, f=0, topology=topo).run()
        for pid in range(5):
            heard = set(res.decisions[pid])
            assert heard == set(topo.neighbors(pid)) | {pid}

    def test_complete_topology_equals_none(self):
        procs = [Probe() for _ in range(4)]
        res_none = SynchronousScheduler([Probe() for _ in range(4)], f=0).run()
        res_topo = SynchronousScheduler(
            procs, f=0, topology=complete_topology(4)
        ).run()
        assert res_none.decisions == res_topo.decisions

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SynchronousScheduler(
                [Probe() for _ in range(4)], f=0, topology=complete_topology(5)
            )

    def test_byzantine_cannot_reach_non_neighbours(self):
        """A Byzantine sender's messages across missing edges are dropped
        too — it cannot conjure wires."""
        from repro.system.adversary import Adversary, ByzantineStrategy
        from repro.system.messages import Message

        class Spammer(ByzantineStrategy):
            def inject(self, pid, view):
                return [
                    Message(pid, dst, "x", f"spam-{dst}", round=view.round)
                    for dst in range(view.n)
                    if dst != pid
                ]

        topo = ring_lattice_topology(5, 1)
        procs = [Probe() for _ in range(5)]
        adv = Adversary(faulty=[0], strategy=Spammer())
        res = SynchronousScheduler(procs, f=1, adversary=adv, topology=topo).run()
        # process 2 is not adjacent to 0: it must not hear the spam
        assert 0 not in res.decisions[2]


class TestEndpointsBeforeTopology:
    """A message to a process that does not exist is an error whether or
    not a topology is installed — never a topology drop.  (A forged
    sender id is refused earlier, by ``Adversary.transform_outbox``.)"""

    @pytest.mark.parametrize(
        "topo", [None, ring_lattice_topology(5, 1)], ids=["no-topology", "ring"]
    )
    @pytest.mark.parametrize("dst", [99, 5, -2])
    def test_out_of_range_destination_raises(self, topo, dst):
        from repro.system.adversary import Adversary, ByzantineStrategy
        from repro.system.messages import Message

        class Forger(ByzantineStrategy):
            def inject(self, pid, view):
                return [Message(pid, dst, "x", "forged", round=view.round)]

        sched = SynchronousScheduler(
            [Probe() for _ in range(5)], f=1,
            adversary=Adversary(faulty=[3], strategy=Forger()), topology=topo,
        )
        with pytest.raises(ValueError, match="message endpoints out of range"):
            sched.run()
        assert sched.metrics.counter_value("sched.sync.topology_drops") == 0
