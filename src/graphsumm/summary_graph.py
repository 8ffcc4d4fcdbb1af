"""Mutable supergraph over a partition of an undirected graph's vertices.

The live supernodes are exactly the keys of ``nodes``, and ``adj`` has the
same keys in the same order; a supernode's id is its key. Every supernode
knows how many original vertices it holds (``size_n``), how many original
edges lie entirely inside it (``internal_e``), and a cached real number
``d_value`` = sum over neighbors i of cross_e(a,i)^2 / size_n(i). The cache
is what makes per-pair scoring and per-node weighting constant time; it is
maintained incrementally on every merge and only ever recomputed from
scratch by the validation helpers.

A superedge is just its crossing edge count; its endpoints are the two
adjacency keys under which it is stored. It is stored once and shared by
both endpoints' adjacency maps, so the symmetric view can never drift and
dropping the edge from one side needs no scan of anybody's list.
Superedges and member sets are never changed after creation (a merge
builds new ones where counts add up and reuses the rest), so ``copy``
shares them between the original and the copy.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class SuperNode:
    """One class of the vertex partition; its id is its key in
    ``SummaryGraph.nodes``. ``alive`` turns False when a merge removes the
    node from the graph, for callers still holding the object."""

    __slots__ = ("size_n", "internal_e", "d_value", "members", "alive")

    def __init__(self, size_n: int = 1, internal_e: int = 0,
                 d_value: float = 0.0, members: set | None = None):
        self.size_n = size_n
        self.internal_e = internal_e
        self.d_value = d_value
        self.members = members
        self.alive = True

    def __repr__(self):
        return f"SuperNode(n={self.size_n}, e={self.internal_e}, alive={self.alive})"


class SuperEdge:
    """Undirected superedge: the count of original edges crossing between its
    endpoints, which are the keys it is stored under. One object is shared by
    both endpoints' adjacency maps.

    Sharing is what replaces an explicit mirror pointer: ``g.adj[a][b]`` and
    ``g.adj[b][a]`` are the same object, so the symmetric view can never drift.
    A superedge is never changed after creation: ``merge`` builds a new one
    for a neighbor of both merged nodes and moves the others over as they
    are, and ``SummaryGraph.copy`` shares them.
    """

    __slots__ = ("cross_e",)

    def __init__(self, cross_e: int):
        self.cross_e = cross_e

    def __repr__(self):
        return f"SuperEdge(cross_e={self.cross_e})"


class SummaryGraph:
    """The evolving supergraph.

    Thread contract: ``merge`` is the only mutator and requires exclusive
    access; read-only operations (``neighbors``, score inputs) may run
    concurrently in between merges.
    """

    def __init__(self):
        self.nodes: dict[int, SuperNode] = {}
        self.adj: dict[int, dict[int, SuperEdge]] = {}
        self.original_vertex_count = 0
        self.original_edge_count = 0
        self._next_id = 0
        # Adjacency entries read or removed by the most recent merge; the
        # count excludes creation of the merged node's new entries so that
        # 2*(deg(a)+deg(b)) is the right yardstick for the merge cost.
        self.last_merge_touched = 0

    @property
    def alive_count(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_edge_list(cls, edges: Iterable[tuple[int, int]],
                       retain_members: bool = False) -> "SummaryGraph":
        """Build the identity summary: one singleton supernode per vertex.

        Duplicate edges (in either orientation) and self-loops are dropped.
        ``retain_members`` keeps per-supernode vertex sets, which the
        evaluation queries need; the summarization loop itself does not.
        """
        edges = list(edges)
        if not edges:
            raise ValueError("empty graph")
        g = cls()
        nodes = g.nodes
        adj = g.adj
        edge_count = 0
        for u, v in edges:
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex id in edge ({u}, {v})")
            for w in (u, v):
                if w not in nodes:
                    nodes[w] = SuperNode(members={w} if retain_members else None)
                    adj[w] = {}
            adj_u = adj[u]
            if u == v or v in adj_u:
                continue
            edge = SuperEdge(1)
            adj_u[v] = edge
            adj[v][u] = edge
            edge_count += 1
        for w, node in nodes.items():
            node.d_value = float(len(adj[w]))  # singleton terms are 1^2/1 each
        g.original_vertex_count = len(nodes)
        g.original_edge_count = edge_count
        g._next_id = max(nodes) + 1
        return g

    # ------------------------------------------------------------------
    # queries

    def is_alive(self, a: int) -> bool:
        return a in self.nodes

    def alive_ids(self) -> Iterator[int]:
        return iter(self.nodes)

    def degree(self, a: int) -> int:
        return len(self.adj[a])

    def cross_count(self, a: int, b: int) -> int:
        """Superedge multiplicity between a and b, 0 when absent."""
        edge = self.adj[a].get(b)
        return edge.cross_e if edge is not None else 0

    def neighbors(self, a: int) -> Iterator[tuple[int, int]]:
        """Yield (neighbor id, cross edge count) for an alive node."""
        if a not in self.nodes:
            raise ValueError(f"node {a} is dead or unknown")
        return ((x, edge.cross_e) for x, edge in self.adj[a].items())

    # ------------------------------------------------------------------
    # mutation

    def merge(self, a: int, b: int) -> int:
        """Collapse supernodes a and b into a new supernode; return its id.

        Work is proportional to deg(a) + deg(b): both adjacency lists are
        coalesced through one scratch map, neighbor-side entries are removed
        by key (the shared-edge analogue of a mirror pointer), and every
        affected d_value is patched incrementally. A superedge that only one
        of a and b had is carried over to z as it is, since its count does
        not change; a neighbor of both gets a new one.

        a and b leave ``nodes`` and ``adj``, but their own adjacency maps
        and ``SuperNode`` objects are left as they were (only ``alive``
        turns False), so a caller holding them can still read the pair's
        pre-merge edges and statistics.
        """
        nodes = self.nodes
        node_a = nodes.get(a)
        node_b = nodes.get(b)
        if a == b or node_a is None or node_b is None:
            raise ValueError("invalid merge pair")
        adj = self.adj
        adj_a = adj[a]
        adj_b = adj[b]
        size_a = node_a.size_n
        size_b = node_b.size_n
        size_z = size_a + size_b
        pair_edge = adj_a.get(b)
        e_ab = pair_edge.cross_e if pair_edge is not None else 0

        new_edges: dict[int, SuperEdge] = {}
        for x, edge in adj_a.items():
            if x == b:
                continue
            e_ax = edge.cross_e
            new_edges[x] = edge
            nodes[x].d_value -= e_ax * e_ax / size_a
            del adj[x][a]
        for x, edge in adj_b.items():
            if x == a:
                continue
            e_bx = edge.cross_e
            edge_a = new_edges.get(x)
            new_edges[x] = edge if edge_a is None else SuperEdge(edge_a.cross_e + e_bx)
            nodes[x].d_value -= e_bx * e_bx / size_b
            del adj[x][b]

        z = self._next_id
        self._next_id += 1
        members = None
        if node_a.members is not None:
            members = node_a.members | node_b.members
        node_z = SuperNode(size_z, node_a.internal_e + node_b.internal_e + e_ab,
                           0.0, members)
        nodes[z] = node_z
        adj_z: dict[int, SuperEdge] = {}
        adj[z] = adj_z
        d_z = 0.0
        for x, edge in new_edges.items():
            e_zx = edge.cross_e
            adj_z[x] = edge
            adj[x][z] = edge
            node = nodes[x]
            node.d_value += e_zx * e_zx / size_z
            d_z += e_zx * e_zx / node.size_n
        node_z.d_value = d_z

        node_a.alive = False
        node_b.alive = False
        del nodes[a], nodes[b], adj[a], adj[b]
        # each entry of a's and b's maps is read, and each one not between
        # a and b is also deleted from the neighbour's map
        self.last_merge_touched = (2 * (len(adj_a) + len(adj_b))
                                   - (2 if pair_edge is not None else 0))
        return z

    # ------------------------------------------------------------------
    # copying and validation

    def copy(self) -> "SummaryGraph":
        """Independent copy of the live supernodes, preserving ids: new
        supernodes and adjacency maps that share the never-changed
        superedges and member sets."""
        g = SummaryGraph()
        g.original_vertex_count = self.original_vertex_count
        g.original_edge_count = self.original_edge_count
        g._next_id = self._next_id
        g.nodes = {i: SuperNode(node.size_n, node.internal_e, node.d_value,
                                node.members)
                   for i, node in self.nodes.items()}
        g.adj = {a: entries.copy() for a, entries in self.adj.items()}
        return g

    def recomputed_d_value(self, a: int) -> float:
        """From-scratch d_value; validation only, never used by the loop."""
        return sum(edge.cross_e ** 2 / self.nodes[x].size_n
                   for x, edge in self.adj[a].items())

    def validate(self, rel_tol: float = 1e-9) -> None:
        """Check every structural invariant; raises AssertionError on failure."""
        nodes = self.nodes
        adj = self.adj
        assert list(nodes) == list(adj), "nodes and adjacency keys differ"
        assert sum(node.size_n for node in nodes.values()) \
            == self.original_vertex_count, \
            "supernode sizes do not partition the vertex set"
        internal_total = 0
        cross_total = 0
        for a, node in nodes.items():
            pairs = node.size_n * (node.size_n - 1) // 2
            assert 0 <= node.internal_e <= pairs, f"internal_e bound violated at {a}"
            internal_total += node.internal_e
            for x, edge in adj[a].items():
                other = nodes.get(x)
                assert other is not None, f"edge {a}-{x} points at a dead node"
                assert adj[x].get(a) is edge, f"mirror broken for {a}-{x}"
                assert 1 <= edge.cross_e <= node.size_n * other.size_n, \
                    f"cross_e bound violated for {a}-{x}"
                if x > a:
                    cross_total += edge.cross_e
            expect = self.recomputed_d_value(a)
            assert abs(node.d_value - expect) <= rel_tol * max(1.0, abs(expect)), \
                f"d_value drift at {a}: stored {node.d_value}, recomputed {expect}"
        assert internal_total + cross_total == self.original_edge_count, \
            "edge conservation violated"
