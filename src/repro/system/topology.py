"""Network topologies for incomplete-graph executions.

The paper's §2 points at iterative Byzantine vector consensus in
*incomplete* graphs (Vaidya, ICDCN 2014): processes only exchange values
with graph neighbours.  :class:`Topology` wraps a networkx graph with the
validation and queries the schedulers and iterative algorithms need, plus
generators for the topologies the benchmarks sweep.

In the simulator, a topology is a property of the *network*: there simply
is no channel between non-adjacent processes, so messages addressed
across a missing edge are dropped (for correct and Byzantine senders
alike — a Byzantine process cannot conjure wires).
"""

from __future__ import annotations

import networkx as nx

__all__ = [
    "Topology",
    "complete_topology",
    "ring_lattice_topology",
    "random_regular_topology",
    "wheel_of_cliques_topology",
]


class Topology:
    """An undirected communication graph over processes ``0..n-1``."""

    def __init__(self, graph: nx.Graph):
        n = graph.number_of_nodes()
        if set(graph.nodes) != set(range(n)):
            raise ValueError("topology nodes must be exactly 0..n-1")
        if any(graph.has_edge(v, v) for v in graph.nodes):
            raise ValueError("self-loops are implicit; remove them from the graph")
        self.graph = graph
        self.n = n

    # ----------------------------------------------------------------- query
    def neighbors(self, pid: int) -> tuple[int, ...]:
        """Sorted neighbour ids of ``pid`` (excluding ``pid`` itself)."""
        return tuple(sorted(self.graph.neighbors(pid)))

    def min_degree(self) -> int:
        return min(dict(self.graph.degree).values())

    def allows(self, src: int, dst: int) -> bool:
        """True when a channel exists (self-delivery always allowed)."""
        return src == dst or self.graph.has_edge(src, dst)

    def diameter(self) -> int:
        return nx.diameter(self.graph)

    # ----------------------------------------------------- feasibility hints
    def supports_iterative_bvc(self, d: int, f: int) -> bool:
        """Degree condition for the Γ-based iterative *update* to be live.

        Each process needs its closed neighbourhood to contain at least
        ``(d+1)f + 1`` values so that ``Γ(neighbourhood multiset)`` is
        guaranteed nonempty by Tverberg.  This guarantees every step is
        well-defined and safe; it does **not** by itself guarantee
        ε-agreement against equivocating Byzantine neighbours on sparse
        graphs — the exact convergence characterisation is the open
        necessary-vs-sufficient gap of Vaidya 2014, and the benchmark
        `bench_iterative.py` makes that gap visible empirically.
        """
        # Function-level import: core.__init__ reaches back into
        # system/ modules, so a module-level core.bounds import here
        # would close an import cycle.
        from ..core.bounds import tverberg_min_n

        return self.min_degree() + 1 >= tverberg_min_n(d, f)

    def __repr__(self) -> str:
        return (
            f"Topology(n={self.n}, edges={self.graph.number_of_edges()}, "
            f"min_deg={self.min_degree()})"
        )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def complete_topology(n: int) -> Topology:
    """The paper's base model: every pair connected."""
    return Topology(nx.complete_graph(n))


def ring_lattice_topology(n: int, k: int) -> Topology:
    """Ring lattice: each node connected to its ``k`` nearest neighbours
    on each side (a classic low-diameter sparse topology)."""
    if not 1 <= k < n / 2 + 1:
        raise ValueError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(n):
        for j in range(1, k + 1):
            g.add_edge(i, (i + j) % n)
    return Topology(g)


def random_regular_topology(n: int, degree: int, seed: int = 0) -> Topology:
    """Random ``degree``-regular graph (retries until connected)."""
    if degree >= n:
        raise ValueError(f"degree {degree} must be < n={n}")
    for attempt in range(50):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            return Topology(nx.convert_node_labels_to_integers(g))
    raise RuntimeError("failed to sample a connected regular graph")


def wheel_of_cliques_topology(num_cliques: int, clique_size: int) -> Topology:
    """Cliques arranged on a ring, adjacent cliques fully inter-connected.

    A clustered topology where local degree is high but global mixing is
    slow — the regime where iterative consensus convergence visibly pays
    for the graph diameter.
    """
    if num_cliques < 3 or clique_size < 1:
        raise ValueError("need >= 3 cliques of >= 1 node")
    n = num_cliques * clique_size
    g = nx.Graph()
    g.add_nodes_from(range(n))
    members = [
        list(range(c * clique_size, (c + 1) * clique_size))
        for c in range(num_cliques)
    ]
    for c, nodes in enumerate(members):
        for i in nodes:
            for j in nodes:
                if i < j:
                    g.add_edge(i, j)
        for i in nodes:
            for j in members[(c + 1) % num_cliques]:
                g.add_edge(i, j)
    return Topology(g)
