"""Reconstruction error and summary-only structural query estimators.

The reconstructed graph is the expected adjacency matrix: inside a supernode
every vertex pair gets the block's edge density, across two supernodes every
pair gets the bipartite density. The l1 reconstruction error has a closed
form over supernode/superedge statistics; the brute-force double loop over
vertex pairs is kept as an independent oracle for it.

All operations here are read-only over a frozen summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .summary_graph import SummaryGraph


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
    """Map each original vertex to its supernode; needs retained members."""
    index: dict[int, int] = {}
    for a, node in summary.nodes.items():
        if node.members is None:
            raise ValueError("membership not retained on this summary")
        for v in node.members:
            index[v] = a
    return index


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


def re_brute(original: SummaryGraph, summary: SummaryGraph,
             oracle_limit: int = 4096) -> float:
    """l1 reconstruction error by direct double loop over ordered vertex
    pairs. The independent oracle for re_closed; quadratic, keep it small."""
    n = original.original_vertex_count
    if n > oracle_limit:
        raise ValueError(f"{n} vertices exceeds the brute-force oracle "
                         f"limit {oracle_limit}")
    index = membership_index(summary)
    vertices = list(original.nodes)
    nodes = summary.nodes
    adj = summary.adj
    density = {i: _internal_density(nodes[i]) for i in adj}
    total = 0.0
    for u in vertices:
        row = original.adj[u]
        block_u = index[u]
        size_u = nodes[block_u].size_n
        for v in vertices:
            if u == v:
                continue
            block_v = index[v]
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


def triangle_count_exact(original: SummaryGraph) -> int:
    """Triangles in the original graph by neighbor-set intersection."""
    neighbor_sets = {u: set(entries) for u, entries in original.adj.items()}
    count = 0
    for u, nbrs in neighbor_sets.items():
        for v in nbrs:
            if v <= u:
                continue
            common = neighbor_sets[u] & neighbor_sets[v]
            for w in common:
                if w > v:
                    count += 1
    return count


def triangle_estimate(summary: SummaryGraph) -> float:
    """Expected triangle count under the reconstructed edge densities.

    The three-supernode part iterates only over triangles of the superedge
    graph (absent superedges contribute density 0), never the cubic loop.
    """
    nodes = summary.nodes
    adj = summary.adj
    total = 0.0
    cross_density = {}
    for a, entries in adj.items():
        size_a = nodes[a].size_n
        node = nodes[a]
        if node.size_n >= 3 and node.internal_e:
            total += math.comb(node.size_n, 3) * _internal_density(node) ** 3
        for x, edge in entries.items():
            if x < a:
                continue
            size_x = nodes[x].size_n
            pi_ax = edge.cross_e / (size_a * size_x)
            cross_density[(a, x)] = pi_ax
            total += pi_ax * pi_ax * (
                math.comb(size_a, 2) * size_x * _internal_density(node)
                + math.comb(size_x, 2) * size_a * _internal_density(nodes[x]))
    neighbor_sets = {a: set(entries) for a, entries in adj.items()}

    def density(i, j):
        return cross_density[(i, j) if i < j else (j, i)]

    for a, nbrs in neighbor_sets.items():
        for b in nbrs:
            if b <= a:
                continue
            for c in neighbor_sets[a] & neighbor_sets[b]:
                if c > b:
                    total += (nodes[a].size_n * nodes[b].size_n * nodes[c].size_n
                              * density(a, b) * density(b, c) * density(a, c))
    return total


# ----------------------------------------------------------------------

def build_report(original: SummaryGraph, summary: SummaryGraph,
                 sample_of_vertices=None, elapsed_seconds: float = 0.0,
                 oracle_limit: int = 1024) -> QueryErrorReport:
    """Aggregate reconstruction and query errors for a finished summary.

    When the graph is small enough the brute-force oracle cross-checks the
    closed form. Degree and centrality errors are absolute, averaged over
    all original vertices (or the given sample); the triangle error is
    relative. Ground-truth centrality uses the same degree-proportional
    surrogate on the original graph, so the error isolates summarization;
    on a graph without edges both surrogates are 0. An empty sample or a
    vertex unknown to either graph raises ValueError.
    """
    if sample_of_vertices is None:
        vertices = list(original.nodes)
    else:
        vertices = list(sample_of_vertices)
    if not vertices:
        raise ValueError("empty vertex sample")
    re1 = re_closed(summary)
    if original.original_vertex_count <= oracle_limit:
        brute = re_brute(original, summary, oracle_limit)
        assert abs(re1 - brute) <= 1e-9 * max(1.0, abs(brute)), \
            f"closed-form RE {re1} disagrees with brute force {brute}"
    index = membership_index(summary)
    block_degree = {a: _block_degree(summary, a) for a in summary.adj}
    two_m = 2.0 * original.original_edge_count
    degree_errors = np.empty(len(vertices))
    for pos, v in enumerate(vertices):
        try:
            degree_errors[pos] = abs(block_degree[index[v]] - len(original.adj[v]))
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
