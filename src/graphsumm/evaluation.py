"""Reconstruction error and summary-only structural query estimators.

The reconstructed graph is the expected adjacency matrix: inside a supernode
every vertex pair gets the block's edge density, across two supernodes every
pair gets the bipartite density. The l1 reconstruction error has a closed
form over supernode/superedge statistics; the brute-force double loop over
vertex pairs is kept as an independent oracle for it.

All operations here are read-only over a frozen summary. The original
graph they compare against is read only through its ``adj`` (iteration
and ``len`` of a vertex's neighbours) and its two counts, so it may be a
``SummaryGraph`` or the much smaller ``InputGraph``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import not_

import numpy as np

from .summary_graph import SummaryGraph


class InputGraph:
    """Read-only input graph for the report: each vertex's neighbours as a
    tuple, keyed in the graph's key order, plus the vertex and edge counts.

    Built from the identity graph before it is summarized, it takes about
    a quarter of the memory of ``SummaryGraph.copy`` (no adjacency dicts,
    no supernodes)."""

    __slots__ = ("adj", "original_vertex_count", "original_edge_count")

    def __init__(self, graph: SummaryGraph):
        self.adj: dict[int, tuple[int, ...]] = {
            a: tuple(entries) for a, entries in graph.adj.items()}
        self.original_vertex_count = graph.original_vertex_count
        self.original_edge_count = graph.original_edge_count


@dataclass
class QueryErrorReport:
    re_l1: float
    re_l1_normalized: float
    re_l2_squared: float
    degree_err_avg: float
    degree_err_std: float
    centrality_err_avg: float
    centrality_err_std: float
    triangle_relative_err: float
    elapsed_seconds: float


def membership_index(summary: SummaryGraph) -> dict[int, int]:
    """Map each original vertex to its supernode, a dict view of
    ``summary.membership()`` for per-vertex queries; needs retained
    membership."""
    return dict(zip(*summary.membership()))


def _internal_density(node) -> float:
    pairs = node.size_n * (node.size_n - 1) // 2
    return node.internal_e / pairs if pairs else 0.0


def expected_adjacency(summary: SummaryGraph, u: int, v: int,
                       index: dict[int, int] | None = None) -> float:
    """Reconstructed edge probability between two original vertices."""
    if index is None:
        index = membership_index(summary)
    try:
        block_u = index[u]
        block_v = index[v]
    except KeyError as missing:
        raise ValueError(f"unknown vertex {missing.args[0]}") from None
    if u == v:
        return 0.0
    if block_u == block_v:
        return _internal_density(summary.nodes[block_u])
    edge = summary.adj[block_u].get(block_v)
    if edge is None:
        return 0.0
    return edge.cross_e / (summary.nodes[block_u].size_n
                           * summary.nodes[block_v].size_n)


def re_brute(original: SummaryGraph | InputGraph, summary: SummaryGraph,
             oracle_limit: int = 4096) -> float:
    """l1 reconstruction error by direct double loop over ordered vertex
    pairs. The independent oracle for re_closed; quadratic, keep it small.
    An original vertex the summary lacks raises ValueError."""
    n = original.original_vertex_count
    if n > oracle_limit:
        raise ValueError(f"{n} vertices exceeds the brute-force oracle "
                         f"limit {oracle_limit}")
    index = membership_index(summary)
    vertices = list(original.adj)
    try:
        blocks = [index[u] for u in vertices]
    except KeyError as missing:
        raise ValueError(f"unknown vertex {missing.args[0]}") from None
    nodes = summary.nodes
    adj = summary.adj
    density = {i: _internal_density(nodes[i]) for i in adj}
    total = 0.0
    for u, block_u in zip(vertices, blocks):
        row = set(original.adj[u])  # a tuple row would make each test linear
        size_u = nodes[block_u].size_n
        for v, block_v in zip(vertices, blocks):
            if u == v:
                continue
            if block_u == block_v:
                abar = density[block_u]
            else:
                edge = adj[block_u].get(block_v)
                abar = edge.cross_e / (size_u * nodes[block_v].size_n) if edge else 0.0
            total += abs(abar - 1.0) if v in row else abar
    return total


def re_closed(summary: SummaryGraph) -> float:
    """l1 reconstruction error from supernode/superedge statistics alone,
    in O(supernodes + superedges)."""
    total = 0.0
    nodes = summary.nodes
    for node in nodes.values():
        if node.internal_e == 0:
            continue
        pairs = node.size_n * (node.size_n - 1) / 2.0
        total += 4.0 * node.internal_e - 4.0 * node.internal_e ** 2 / pairs
    for a, entries in summary.adj.items():
        size_a = nodes[a].size_n
        for x, edge in entries.items():
            if x < a:
                continue
            # each unordered superedge appears twice in the ordered sum
            total += 4.0 * edge.cross_e \
                - 4.0 * edge.cross_e ** 2 / (size_a * nodes[x].size_n)
    return total


# ----------------------------------------------------------------------
# structural queries

def _block_degree(summary: SummaryGraph, block: int) -> float:
    node = summary.nodes[block]
    cross = sum(edge.cross_e for edge in summary.adj[block].values())
    return (2.0 * node.internal_e + cross) / node.size_n


def degree_estimate(summary: SummaryGraph, v: int,
                    index: dict[int, int] | None = None) -> float:
    """Row sum of the expected adjacency matrix at vertex v."""
    if index is None:
        index = membership_index(summary)
    try:
        block = index[v]
    except KeyError:
        raise ValueError(f"unknown vertex {v}") from None
    return _block_degree(summary, block)


def centrality_estimate(summary: SummaryGraph, v: int,
                        index: dict[int, int] | None = None) -> float:
    """Degree-proportional centrality surrogate, estimated degree / 2|E|;
    0 on a graph without edges, where every degree is 0."""
    degree = degree_estimate(summary, v, index)
    two_m = 2.0 * summary.original_edge_count
    return degree / two_m if two_m else 0.0


def _forward_sets(adj) -> dict[int, set[int]]:
    """Each node's neighbors with a larger id: every edge once, at its
    smaller end."""
    return {a: set(filter(a.__lt__, entries)) for a, entries in adj.items()}


def _triangle_edges(forward: dict[int, set[int]]):
    """Yield the edges a < b that close at least one triangle a < b < c.

    The test of each edge runs in C; only the few edges that close a
    triangle reach Python code.
    """
    for a, later in forward.items():
        if len(later) < 2:  # a is then no triangle's smallest vertex
            continue
        closes = map(not_, map(later.isdisjoint, map(forward.__getitem__, later)))
        for b in compress(later, closes):
            yield a, b


def triangle_count_exact(original: SummaryGraph | InputGraph) -> int:
    """Triangles in the original graph: each a < b < c counted once, at
    its edge (a, b)."""
    forward = _forward_sets(original.adj)
    return sum(len(forward[a] & forward[b]) for a, b in _triangle_edges(forward))


def triangle_estimate(summary: SummaryGraph) -> float:
    """Expected triangle count under the reconstructed edge densities.

    A vertex triple spans one, two or three supernodes. Triples inside one
    block or with two vertices in one block need that block's internal
    density, so only blocks with internal edges contribute them; triples
    across three blocks need three superedges, so only triangles of the
    superedge graph contribute (never the cubic loop). The terms are added
    with math.fsum, so the total does not depend on iteration order.
    """
    nodes = summary.nodes
    adj = summary.adj
    terms = []
    for a, node in nodes.items():
        if not node.internal_e:
            continue
        size_a = node.size_n
        density = _internal_density(node)
        terms.append(math.comb(size_a, 3) * density ** 3)
        pairs = math.comb(size_a, 2)
        for x, edge in adj[a].items():
            size_x = nodes[x].size_n
            pi_ax = edge.cross_e / (size_a * size_x)
            terms.append(pi_ax * pi_ax * pairs * size_x * density)
    forward = _forward_sets(adj)
    for a, b in _triangle_edges(forward):
        adj_a = adj[a]
        size_a = nodes[a].size_n
        size_b = nodes[b].size_n
        pi_ab = adj_a[b].cross_e / (size_a * size_b)
        for c in forward[a] & forward[b]:
            size_c = nodes[c].size_n
            terms.append(size_a * size_b * size_c * pi_ab
                         * (adj[b][c].cross_e / (size_b * size_c))
                         * (adj_a[c].cross_e / (size_a * size_c)))
    return math.fsum(terms)


# ----------------------------------------------------------------------

def build_report(original: SummaryGraph | InputGraph, summary: SummaryGraph,
                 sample_of_vertices=None, elapsed_seconds: float = 0.0,
                 oracle_limit: int = 1024) -> QueryErrorReport:
    """Aggregate reconstruction and query errors for a finished summary.

    When the graph is small enough the brute-force oracle cross-checks the
    closed form. Degree and centrality errors are absolute, averaged over
    all original vertices (or the given sample); the triangle error is
    relative. Without a sample the vertices come in the order of
    ``summary.membership()``, so no per-vertex index is built. Ground-truth
    centrality uses the same degree-proportional surrogate on the original
    graph, so the error isolates summarization; on a graph without edges
    both surrogates are 0. An empty sample, a vertex unknown to either
    graph or a vertex count that differs between them raises ValueError.
    ``original`` is read only through ``adj`` and its counts: an
    ``InputGraph`` of the input gives the same report as a
    ``SummaryGraph`` copy of it.
    """
    re1 = re_closed(summary)
    if sample_of_vertices is None:
        vertices, blocks = summary.membership()
        if len(vertices) != len(original.adj):
            raise ValueError(f"summary holds {len(vertices)} vertices, the "
                             f"original graph {len(original.adj)}")
    else:
        vertices = list(sample_of_vertices)
        if not vertices:
            raise ValueError("empty vertex sample")
        index = membership_index(summary)
        blocks = [index.get(v) for v in vertices]
    if original.original_vertex_count <= oracle_limit:
        brute = re_brute(original, summary, oracle_limit)
        if abs(re1 - brute) > 1e-9 * max(1.0, abs(brute)):
            raise AssertionError(
                f"closed-form RE {re1} disagrees with brute force {brute}")
    block_degree = {a: _block_degree(summary, a) for a in summary.adj}
    two_m = 2.0 * original.original_edge_count
    degree_errors = np.empty(len(vertices))
    for pos, (v, block) in enumerate(zip(vertices, blocks)):
        try:
            degree_errors[pos] = abs(block_degree[block] - len(original.adj[v]))
        except KeyError:
            raise ValueError(f"unknown vertex {v}") from None
    if two_m:
        centrality_errors = degree_errors / two_m
    else:  # without edges every degree is 0, and so is every surrogate
        centrality_errors = np.zeros_like(degree_errors)
    exact_triangles = triangle_count_exact(original)
    estimated_triangles = triangle_estimate(summary)
    if exact_triangles:
        triangle_err = (estimated_triangles - exact_triangles) / exact_triangles
    else:
        triangle_err = 0.0 if estimated_triangles == 0.0 else math.inf
    return QueryErrorReport(
        re_l1=re1,
        re_l1_normalized=re1 / original.original_vertex_count,
        re_l2_squared=re1 / 2.0,
        degree_err_avg=float(degree_errors.mean()),
        degree_err_std=float(degree_errors.std()),
        centrality_err_avg=float(centrality_errors.mean()),
        centrality_err_std=float(centrality_errors.std()),
        triangle_relative_err=triangle_err,
        elapsed_seconds=elapsed_seconds,
    )
