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
Superedges are never changed after creation (a merge builds new ones
where counts add up and reuses the rest), so ``copy`` shares them between
the original and the copy, and every count-1 superedge of the graph is the
one shared ``UNIT_EDGE``.

A merge of a and b keeps a: the merged supernode takes a's id, its
``SuperNode`` and its adjacency map, so no id is ever made up and every
live id is one the graph started with.

Vertex membership is not stored per supernode. The graph keeps each
original vertex with its block at the start (``member_ids``,
``member_start``) and a flat log of its merges (``merge_log``, one (a, b)
pair per merge); ``membership`` replays the log to give every vertex its
current block. Every graph ``from_edge_list`` builds knows its
vertices; only a summary read back from a file without member lists does
not (``member_ids`` is None), and its log then records the merges since.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain
from typing import Iterable, Iterator


class SuperNode:
    """One class of the vertex partition; its id is its key in
    ``SummaryGraph.nodes``. A merge updates the kept node in place and
    turns ``alive`` False on the removed one, for callers still holding
    the object."""

    __slots__ = ("size_n", "internal_e", "d_value", "alive")

    def __init__(self, size_n: int = 1, internal_e: int = 0,
                 d_value: float = 0.0):
        self.size_n = size_n
        self.internal_e = internal_e
        self.d_value = d_value
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
    are, and ``SummaryGraph.copy`` shares them. Since a merge never builds a
    count-1 superedge (a new one adds two counts of at least 1), every
    count-1 superedge is the single ``UNIT_EDGE``, shared by all edges of
    the identity graph and of a read-back summary.
    """

    __slots__ = ("cross_e",)

    def __init__(self, cross_e: int):
        self.cross_e = cross_e

    def __repr__(self):
        return f"SuperEdge(cross_e={self.cross_e})"


UNIT_EDGE = SuperEdge(1)


class SummaryGraph:
    """The evolving supergraph.

    Thread contract: ``merge`` is the only mutator and requires exclusive
    access; read-only operations (``adj`` and ``nodes`` lookups, score
    inputs) may run concurrently in between merges.
    """

    def __init__(self):
        self.nodes: dict[int, SuperNode] = {}
        self.adj: dict[int, dict[int, SuperEdge]] = {}
        self.original_vertex_count = 0
        self.original_edge_count = 0
        # The original vertex ids and each one's block when the log starts
        # (both None while membership is unknown), and the merges since, as
        # flat (kept, removed) pairs.
        self.member_ids: array | None = None
        self.member_start: array | None = None
        self.merge_log = array("q")
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
    def from_edge_list(cls, edges: Iterable[tuple[int, int]]) -> "SummaryGraph":
        """Build the identity summary: one singleton supernode per vertex.

        Duplicate edges (in either orientation) and self-loops are dropped.
        The graph keeps the vertex ids, and every merge is logged, so that
        ``membership`` can say which supernode holds each vertex. Ids must
        fit the int64 log, so an id of 2^63 or more raises ValueError.
        """
        edges = list(edges)
        if not edges:
            raise ValueError("empty graph")
        ids = dict.fromkeys(chain.from_iterable(edges))  # first-appearance order
        if min(ids) < 0:
            u, v = next((u, v) for u, v in edges if u < 0 or v < 0)
            raise ValueError(f"negative vertex id in edge ({u}, {v})")
        g = cls()
        adj = g.adj = {w: {} for w in ids}
        for u, v in edges:
            # a repeated edge re-stores the same object under keys it
            # already has, which keeps their positions
            if u != v:
                adj[u][v] = UNIT_EDGE
                adj[v][u] = UNIT_EDGE
        # singleton d_value terms are 1^2/1 each
        g.nodes = {w: SuperNode(1, 0, float(len(entries)))
                   for w, entries in adj.items()}
        g.original_vertex_count = len(ids)
        g.original_edge_count = sum(map(len, adj.values())) // 2
        if max(ids) >= 2 ** 63:
            raise ValueError("vertex ids too large for the int64 merge log")
        # each vertex starts as its own block, so one array serves both
        g.member_ids = g.member_start = array("q", ids)
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

    def membership(self) -> tuple[array, array]:
        """Aligned arrays (vertices, blocks): blocks[i] is the live
        supernode holding original vertex vertices[i]. ``vertices`` is the
        graph's own ``member_ids``; ``blocks`` is new on every call.

        Replays the merge log with union-find in O(n α(n)): each merge
        links b under a, path compression then points every merged id at
        its root, and a start block that no merge touched is its own root.
        Raises ValueError when membership is unknown: the graph was read
        from a summary file without member lists.
        """
        if self.member_ids is None:
            raise ValueError("membership not retained on this summary")
        parent: dict[int, int] = {}
        pairs = iter(self.merge_log)
        for a, b in zip(pairs, pairs):
            parent[b] = a
        for merged in parent:  # only values change, never keys
            root = parent[merged]
            while root in parent:
                root = parent[root]
            x = merged
            while x != root:
                parent[x], x = root, parent[x]
        start = self.member_start
        return self.member_ids, array("q", map(parent.get, start, start))

    # ------------------------------------------------------------------
    # mutation

    def merge(self, a: int, b: int) -> int:
        """Collapse supernode b into supernode a; return a.

        Work is proportional to deg(a) + deg(b): b's adjacency is folded
        into a's map in place, each of b's neighbors trades its key b for
        a, and every affected d_value is patched incrementally. A
        superedge that only one of a and b had is carried over as it is,
        since its count does not change; a neighbor of both gets a new
        one. a's map keeps its neighbors first, in its order, then b's
        other neighbors in b's order. A neighbor of a keeps key a where it
        was; a neighbor of b alone gets it at the end of its map.

        a's ``SuperNode`` is updated in place; b leaves ``nodes`` and
        ``adj``, and its ``SuperNode`` has ``alive`` cleared.
        """
        nodes = self.nodes
        node_a = nodes.get(a)
        node_b = nodes.get(b)
        if a == b or node_a is None or node_b is None:
            raise ValueError("invalid merge pair")
        adj = self.adj
        adj_a = adj[a]
        adj_b = adj.pop(b)
        size_a = node_a.size_n
        size_b = node_b.size_n
        size_ab = size_a + size_b
        pair_edge = adj_a.pop(b, None)
        e_ab = pair_edge.cross_e if pair_edge is not None else 0
        # each entry of a's and b's maps is read, and each one not between
        # a and b is also patched in the neighbour's map; with b's entry
        # already popped from a's map, that is twice the two lengths
        self.last_merge_touched = 2 * (len(adj_a) + len(adj_b))

        for x, edge in adj_a.items():
            e_ax = edge.cross_e
            nodes[x].d_value -= e_ax * e_ax / size_a
        for x, edge in adj_b.items():
            if x == a:
                continue
            e_bx = edge.cross_e
            nodes[x].d_value -= e_bx * e_bx / size_b
            adj_x = adj[x]
            del adj_x[b]
            edge_a = adj_a.get(x)
            if edge_a is not None:
                edge = SuperEdge(edge_a.cross_e + e_bx)
            adj_a[x] = adj_x[a] = edge

        self.merge_log.extend((a, b))
        d_ab = 0.0
        for x, edge in adj_a.items():
            e_ax = edge.cross_e
            node = nodes[x]
            node.d_value += e_ax * e_ax / size_ab
            d_ab += e_ax * e_ax / node.size_n
        node_a.size_n = size_ab
        node_a.internal_e += node_b.internal_e + e_ab
        node_a.d_value = d_ab

        node_b.alive = False
        del nodes[b]
        return a

    # ------------------------------------------------------------------
    # copying and validation

    def copy(self) -> "SummaryGraph":
        """Independent copy of the live supernodes, preserving ids: new
        supernodes and adjacency maps that share the never-changed
        superedges, and a copy of the merge log that shares the
        never-changed vertex arrays. For a caller that goes on merging one
        of the two; a report on the input graph needs only
        ``evaluation.InputGraph``, which takes about a quarter of the
        memory."""
        g = SummaryGraph()
        g.original_vertex_count = self.original_vertex_count
        g.original_edge_count = self.original_edge_count
        g.member_ids = self.member_ids
        g.member_start = self.member_start
        g.merge_log = array("q", self.merge_log)
        g.nodes = {i: SuperNode(node.size_n, node.internal_e, node.d_value)
                   for i, node in self.nodes.items()}
        g.adj = {a: entries.copy() for a, entries in self.adj.items()}
        return g

    def recomputed_d_value(self, a: int) -> float:
        """From-scratch d_value; validation only, never used by the loop.

        Added left to right in adjacency order, the order in which
        ``read_summary`` accumulates it (``sum`` compensates float sums
        from Python 3.12 on, which would not match bit for bit).
        """
        total = 0.0
        for x, edge in self.adj[a].items():
            total += edge.cross_e ** 2 / self.nodes[x].size_n
        return total

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
        if self.member_ids is not None:
            assert Counter(self.membership()[1]) \
                == {a: node.size_n for a, node in nodes.items()}, \
                "replayed membership disagrees with supernode sizes"
