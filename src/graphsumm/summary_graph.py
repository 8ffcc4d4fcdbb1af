"""Mutable supergraph over a partition of an undirected graph's vertices.

Every vertex of the input has a dense index 0..n-1, given in order of
first appearance in the edge list, and a supernode's id is the index of a
vertex it holds. The live supernodes are exactly the keys of ``adj``. Every
supernode knows how many original vertices it holds (``size_n``), how many
original edges lie entirely inside it (``internal_e``), and a cached real
number ``d_value`` = sum over neighbors i of cross_e(a,i)^2 / size_n(i).
The three statistics live in three numpy arrays indexed by id, read and
written through the ``memoryview``s of the same names, so a read gives a
plain Python int or float and a write stores in place. An id merged away
keeps a stale ``size_n``, but its ``internal_e`` and ``d_value`` are
zeroed, so a whole-array sum of either counts only live supernodes (as
``evaluation.re_closed`` takes them). The cache is what makes
per-pair scoring and per-node weighting constant time; it is maintained
incrementally on every merge and only ever recomputed from scratch by the
validation helpers. ``nodes`` is a read-only mapping view of the live
statistics for callers, one ``SuperNode`` per live id; the package's own
loops read the arrays.

A superedge is just its crossing edge count; its endpoints are the two
adjacency keys under which it is stored. It is stored once and shared by
both endpoints' adjacency maps, so the symmetric view can never drift and
dropping the edge from one side needs no scan of anybody's list.
Superedges are never changed after creation (a merge builds new ones
where counts add up and reuses the rest), so ``copy`` shares them between
the original and the copy, and every count-1 superedge of the graph is the
one shared ``UNIT_EDGE``.

A merge of a and b keeps a: the merged supernode takes a's id, its
statistics and its adjacency map, so no id is ever made up and every live
id is one the graph started with.

Vertices face callers by label. ``labels[i]`` is the label of id i: the
input's vertex id for a graph ``from_edge_list`` builds, and i itself for
a summary read back from a file, whose supernodes are numbered 0..k-1.
Vertex membership is not stored per supernode. The graph keeps each
original vertex's label with its block at the start (``member_ids``,
``member_start``) and a flat log of its merges (``merge_log``, one (a, b)
id pair per merge); ``membership`` replays the log to give every vertex
its current block. A built graph's ``member_ids`` is its ``labels``
array, each vertex its own start block. Only a summary read back from a
file without member lists does not know its vertices (``member_ids`` is
None), and its log then records the merges since.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Mapping
from itertools import chain
from typing import Iterable, Iterator

import numpy as np


class SuperNode:
    """Read view of one supernode's statistics in its graph's arrays. It
    reads them when asked, so it follows later merges; ``alive`` turns
    False once the supernode is merged away."""

    __slots__ = ("_graph", "_id")

    def __init__(self, graph: "SummaryGraph", node_id: int):
        self._graph = graph
        self._id = node_id

    @property
    def size_n(self) -> int:
        return self._graph.size_n[self._id]

    @property
    def internal_e(self) -> int:
        return self._graph.internal_e[self._id]

    @property
    def d_value(self) -> float:
        return self._graph.d_value[self._id]

    @property
    def alive(self) -> bool:
        return self._id in self._graph.adj

    def __repr__(self):
        return f"SuperNode(n={self.size_n}, e={self.internal_e}, alive={self.alive})"


class NodeView(Mapping):
    """The live supernodes as a read-only mapping id -> ``SuperNode``, in
    the order of ``adj``."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "SummaryGraph"):
        self._graph = graph

    def __getitem__(self, node_id: int) -> SuperNode:
        if node_id not in self._graph.adj:
            raise KeyError(node_id)
        return SuperNode(self._graph, node_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self._graph.adj)

    def __len__(self) -> int:
        return len(self._graph.adj)


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
    """The evolving supergraph. ``SummaryGraph(capacity)`` has statistics
    storage for ids 0..capacity-1, each a singleton without edges, and no
    live supernode until its id becomes a key of ``adj``.

    Thread contract: ``merge`` is the only mutator and requires exclusive
    access; read-only operations (``adj`` lookups, statistics reads, score
    inputs) may run concurrently in between merges.
    """

    def __init__(self, capacity: int = 0):
        self.adj: dict[int, dict[int, SuperEdge]] = {}
        self.size_n = memoryview(np.ones(capacity, np.int64))
        self.internal_e = memoryview(np.zeros(capacity, np.int64))
        self.d_value = memoryview(np.zeros(capacity))
        self.nodes = NodeView(self)
        self.labels = range(capacity)
        self.original_vertex_count = 0
        self.original_edge_count = 0
        # Each original vertex's label and its block when the log starts
        # (both None while membership is unknown), and the merges since, as
        # flat (kept, removed) pairs.
        self.member_ids: array | None = None
        self.member_start: array | range | None = None
        self.merge_log = array("q")
        # Adjacency entries read or removed by the most recent merge; the
        # count excludes creation of the merged node's new entries so that
        # 2*(deg(a)+deg(b)) is the right yardstick for the merge cost.
        self.last_merge_touched = 0

    @property
    def alive_count(self) -> int:
        return len(self.adj)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_edge_list(cls, edges: Iterable[tuple[int, int]]) -> "SummaryGraph":
        """Build the identity summary: one singleton supernode per vertex.

        This is the one place where vertex labels become ids: any signed
        64-bit labels are relabelled once to ids 0..n-1 in order of first
        appearance, and ``labels`` keeps them, so the CLI and a library
        caller that pass the same pairs build the same graph. Duplicate
        edges (in either orientation) and self-loops are dropped. Every
        merge is logged, so that ``membership`` can say which supernode
        holds each label. A label outside the signed 64-bit range (beyond
        the int64 label array) raises ValueError.
        """
        edges = list(edges)
        if not edges:
            raise ValueError("empty graph")
        # the endpoints are read as one flat stream, paired up again below
        if set(map(len, edges)) != {2}:
            raise ValueError("every edge must be a pair of vertex labels")
        index = dict.fromkeys(chain.from_iterable(edges))  # first-appearance order
        try:
            labels = array("q", index)
        except OverflowError:
            raise ValueError("vertex ids too large for the int64 label array") from None
        n = len(labels)
        index = dict(zip(index, range(n)))
        # one C-level pass maps every endpoint to its id, and the list is
        # read back two at a time: faster than a lookup per endpoint in
        # the loop, or than interleaving the lookups with the row writes
        ids = iter(list(map(index.__getitem__, chain.from_iterable(edges))))
        rows = [{} for _ in range(n)]
        for u, v in zip(ids, ids):
            # a repeated edge re-stores the same object under keys it
            # already has, which keeps their positions
            if u != v:
                rows[u][v] = UNIT_EDGE
                rows[v][u] = UNIT_EDGE
        g = cls(n)
        g.adj = dict(enumerate(rows))
        # singleton d_value terms are 1^2/1 each
        g.d_value = memoryview(np.fromiter(map(len, rows), np.float64, n))
        g.original_vertex_count = n
        g.original_edge_count = sum(map(len, rows)) // 2
        # each vertex starts as its own block
        g.labels = g.member_ids = labels
        g.member_start = range(n)
        return g

    # ------------------------------------------------------------------
    # queries

    def alive_ids(self) -> Iterator[int]:
        return iter(self.adj)

    def membership(self) -> tuple[array, array]:
        """Aligned arrays (vertices, blocks): blocks[i] is the id of the
        live supernode holding the vertex labelled vertices[i].
        ``vertices`` is the graph's own ``member_ids``; ``blocks`` is new
        on every call.

        Replays the merge log once, last merge first, in O(n): when merge
        (a, b) is reached, a's entry already holds the block a ends in, and
        b ends in the same one; an id that no merge removed is its own
        block. Raises ValueError when membership is unknown: the graph was
        read from a summary file without member lists.
        """
        if self.member_ids is None:
            raise ValueError("membership not retained on this summary")
        root = array("q", range(len(self.size_n)))
        log = self.merge_log
        for a, b in zip(log[-2::-2], log[::-2]):
            root[b] = root[a]
        return self.member_ids, array("q", map(root.__getitem__, self.member_start))

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

        a's statistics are updated in place; b leaves ``adj``, and its
        ``internal_e`` and ``d_value`` are zeroed.
        """
        adj = self.adj
        adj_a = adj.get(a)
        if a == b or adj_a is None or b not in adj:
            raise ValueError("invalid merge pair")
        adj_b = adj.pop(b)
        size_n = self.size_n
        d_value = self.d_value
        size_a = size_n[a]
        size_b = size_n[b]
        size_ab = size_a + size_b
        pair_edge = adj_a.pop(b, None)
        e_ab = pair_edge.cross_e if pair_edge is not None else 0
        # each entry of a's and b's maps is read, and each one not between
        # a and b is also patched in the neighbour's map; with b's entry
        # already popped from a's map, that is twice the two lengths
        self.last_merge_touched = 2 * (len(adj_a) + len(adj_b))
        adj_b.pop(a, None)

        # One pass over a's neighbours, then one over b's other neighbours,
        # in the order the merged map keeps them. A neighbour's d_value
        # loses its old terms, a's then b's, and gains the merged one, in
        # that order; d_ab adds the merged terms in map order.
        d_ab = 0.0
        for x, edge in adj_a.items():
            e_ax = edge.cross_e
            edge_b = adj_b.pop(x, None)
            if edge_b is None:
                square = e_ax * e_ax
                d_value[x] = d_value[x] - square / size_a + square / size_ab
            else:
                e_bx = edge_b.cross_e
                e_x = e_ax + e_bx
                adj_x = adj[x]
                del adj_x[b]
                # a value changes, no key: safe while iterating
                adj_a[x] = adj_x[a] = SuperEdge(e_x)
                square = e_x * e_x
                d_value[x] = (d_value[x] - e_ax * e_ax / size_a
                              - e_bx * e_bx / size_b + square / size_ab)
            d_ab += square / size_n[x]
        for x, edge in adj_b.items():
            e_bx = edge.cross_e
            adj_x = adj[x]
            del adj_x[b]
            adj_a[x] = adj_x[a] = edge
            square = e_bx * e_bx
            d_value[x] = d_value[x] - square / size_b + square / size_ab
            d_ab += square / size_n[x]

        self.merge_log.extend((a, b))
        size_n[a] = size_ab
        internal_e = self.internal_e
        internal_e[a] += internal_e[b] + e_ab
        internal_e[b] = 0
        d_value[a] = d_ab
        d_value[b] = 0.0
        return a

    # ------------------------------------------------------------------
    # copying and validation

    def copy(self) -> "SummaryGraph":
        """Independent copy of the live supernodes, preserving ids: new
        statistics arrays and adjacency maps that share the never-changed
        superedges, and a copy of the merge log that shares the
        never-changed label and vertex arrays. For a caller that goes on
        merging one of the two; a report on the input graph needs only
        ``evaluation.InputGraph``, whose CSR arrays take about a tenth of
        the memory."""
        g = SummaryGraph()
        g.original_vertex_count = self.original_vertex_count
        g.original_edge_count = self.original_edge_count
        g.labels = self.labels
        g.member_ids = self.member_ids
        g.member_start = self.member_start
        g.merge_log = array("q", self.merge_log)
        g.size_n = memoryview(np.array(self.size_n))
        g.internal_e = memoryview(np.array(self.internal_e))
        g.d_value = memoryview(np.array(self.d_value))
        g.adj = {a: entries.copy() for a, entries in self.adj.items()}
        return g

    def recomputed_d_value(self, a: int) -> float:
        """From-scratch d_value; validation only, never used by the loop.

        Added left to right in adjacency order, the order in which
        ``read_summary`` accumulates it (``sum`` compensates float sums
        from Python 3.12 on, which would not match bit for bit).
        """
        size_n = self.size_n
        total = 0.0
        for x, edge in self.adj[a].items():
            total += edge.cross_e ** 2 / size_n[x]
        return total

    def validate(self, rel_tol: float = 1e-9) -> None:
        """Check every structural invariant; raises AssertionError on failure."""
        adj = self.adj
        size_n = self.size_n
        internal_e = self.internal_e
        d_value = self.d_value
        assert sum(size_n[a] for a in adj) == self.original_vertex_count, \
            "supernode sizes do not partition the vertex set"
        internal_total = 0
        cross_total = 0
        for a, entries in adj.items():
            size_a = size_n[a]
            assert size_a >= 1, f"empty supernode {a}"
            assert 0 <= internal_e[a] <= size_a * (size_a - 1) // 2, \
                f"internal_e bound violated at {a}"
            internal_total += internal_e[a]
            for x, edge in entries.items():
                assert x in adj, f"edge {a}-{x} points at a dead node"
                assert adj[x].get(a) is edge, f"mirror broken for {a}-{x}"
                assert 1 <= edge.cross_e <= size_a * size_n[x], \
                    f"cross_e bound violated for {a}-{x}"
                if x > a:
                    cross_total += edge.cross_e
            expect = self.recomputed_d_value(a)
            assert abs(d_value[a] - expect) <= rel_tol * max(1.0, abs(expect)), \
                f"d_value drift at {a}: stored {d_value[a]}, recomputed {expect}"
        assert internal_total + cross_total == self.original_edge_count, \
            "edge conservation violated"
        dead = np.ones(len(size_n), bool)
        dead[list(adj)] = False
        assert not np.asarray(internal_e)[dead].any() \
            and not np.asarray(d_value)[dead].any(), \
            "a dead supernode keeps internal edges or a d_value"
        if self.member_ids is not None:
            assert Counter(self.membership()[1]) \
                == {a: size_n[a] for a in adj}, \
                "replayed membership disagrees with supernode sizes"
