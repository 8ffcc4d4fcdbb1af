"""Reconstruction error and summary-only structural query estimators.

The reconstructed graph is the expected adjacency matrix: inside a supernode
every vertex pair gets the block's edge density, across two supernodes every
pair gets the bipartite density. The l1 reconstruction error has a closed
form over supernode/superedge statistics; the brute-force double loop over
vertex pairs is kept as an independent oracle for it.

Summary-wide sums over superedges are read from the statistics that
``SummaryGraph.merge`` keeps per supernode instead of walked: every
superedge appears once in each endpoint's ``d_value`` (the sum of
e_ax^2/n_x over a's neighbours), and edge conservation gives the sum of
all crossing counts as m minus the internal ones. So ``re_closed`` costs
O(k) for k supernodes, and the two-in-one-block terms of
``triangle_estimate`` cost one term per block. Both rely on the cache and
conservation invariants that ``SummaryGraph.validate`` checks.

All operations here are read-only over a frozen summary, and every
vertex they take or compare is a label, the input's own vertex id. The
original graph they compare against is an ``InputGraph``: CSR arrays of
its rows, each row's label, and its two counts; an identity
``SummaryGraph`` passed in its place is turned into one first. Both
triangle queries run one numpy kernel over CSR arrays, of the input graph
for the exact count and of the superedge graph for the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .summary_graph import SummaryGraph


def _adjacency_arrays(graph: SummaryGraph):
    """A graph's adjacency maps as CSR arrays, in one pass over its rows:
    the live ids in ``adj`` order, the row pointers, and each entry's
    neighbour as a row number. Row r holds id ``ids[r]``; an identity
    graph's row r is its vertex id r."""
    rows = graph.adj.values()
    k = len(rows)
    ids = np.fromiter(graph.adj, np.int64, k)
    indptr = np.zeros(k + 1, np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, k), out=indptr[1:])
    row_of = np.empty(len(graph.size_n), np.int32)
    row_of[ids] = np.arange(k, dtype=np.int32)
    neighbours = np.fromiter(chain.from_iterable(rows), np.int64, indptr[-1])
    return ids, indptr, row_of[neighbours]


class InputGraph:
    """Read-only input graph for the report, as CSR arrays: row r's
    neighbours are the rows ``indices[indptr[r]:indptr[r + 1]]``, its
    degree is ``np.diff(indptr)[r]`` and its label ``labels[r]``; plus the
    vertex and edge counts. Rows follow the graph's key order, which for
    an identity graph is its id order.

    Built from the identity graph before it is summarized, it takes about
    a tenth of the memory of ``SummaryGraph.copy`` (no adjacency dicts,
    no statistics, no int object per entry)."""

    __slots__ = ("indptr", "indices", "labels", "original_vertex_count",
                 "original_edge_count")

    def __init__(self, graph: SummaryGraph):
        ids, self.indptr, self.indices = _adjacency_arrays(graph)
        self.labels = np.asarray(graph.labels, np.int64)[ids]
        self.original_vertex_count = graph.original_vertex_count
        self.original_edge_count = graph.original_edge_count


def _input_graph(original: SummaryGraph | InputGraph) -> InputGraph:
    return InputGraph(original) if isinstance(original, SummaryGraph) else original


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
    ``summary.membership()`` for per-vertex queries; raises ValueError on
    a summary read back without member lists."""
    return dict(zip(*summary.membership()))


def _internal_density(summary: SummaryGraph, block: int) -> float:
    size = summary.size_n[block]
    pairs = size * (size - 1) // 2
    return summary.internal_e[block] / pairs if pairs else 0.0


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
        return _internal_density(summary, block_u)
    edge = summary.adj[block_u].get(block_v)
    if edge is None:
        return 0.0
    return edge.cross_e / (summary.size_n[block_u] * summary.size_n[block_v])


def re_brute(original: SummaryGraph | InputGraph, summary: SummaryGraph,
             oracle_limit: int = 4096) -> float:
    """l1 reconstruction error by direct double loop over ordered vertex
    pairs, matched to their blocks by label. The independent oracle for
    re_closed; quadratic, keep it small. An original vertex the summary
    lacks raises ValueError."""
    n = original.original_vertex_count
    if n > oracle_limit:
        raise ValueError(f"{n} vertices exceeds the brute-force oracle "
                         f"limit {oracle_limit}")
    original = _input_graph(original)
    index = membership_index(summary)
    vertices = original.labels.tolist()
    try:
        blocks = [index[u] for u in vertices]
    except KeyError as missing:
        raise ValueError(f"unknown vertex {missing.args[0]}") from None
    indptr = original.indptr.tolist()
    indices = original.indices.tolist()
    size_n = summary.size_n
    adj = summary.adj
    density = {i: _internal_density(summary, i) for i in adj}
    total = 0.0
    for row_u, block_u in enumerate(blocks):
        row = set(indices[indptr[row_u]:indptr[row_u + 1]])
        size_u = size_n[block_u]
        for row_v, block_v in enumerate(blocks):
            if row_u == row_v:
                continue
            if block_u == block_v:
                abar = density[block_u]
            else:
                edge = adj[block_u].get(block_v)
                abar = edge.cross_e / (size_u * size_n[block_v]) if edge else 0.0
            total += abs(abar - 1.0) if row_v in row else abar
    return total


def re_closed(summary: SummaryGraph) -> float:
    """l1 reconstruction error from the supernode statistics alone, in O(k)
    for k supernodes:

        RE = 4m - 4 * sum_a e_a^2 / C(n_a, 2) - 2 * sum_a d_a / n_a

    Walked over superedges, RE is the sum of 4e_a - 4e_a^2/C(n_a,2) over
    blocks plus 4c - 4c^2/(n_a n_x) over unordered superedges of count c.
    The linear terms add up to 4m, since the internal and crossing counts
    partition the m edges. Each superedge's c^2/(n_a n_x) appears once in
    d_a/n_a and once in d_x/n_x, hence the factor 2 on that sum.

    Contract: every ``d_value`` equals the sum of its superedges'
    e_ax^2/n_x, the internal and crossing counts add up to
    ``original_edge_count``, and a merged-away id has ``internal_e`` and
    ``d_value`` 0, so the sums run over the whole arrays;
    ``SummaryGraph.validate`` checks all three, and ``merge`` and
    ``read_summary`` keep them. The two sums are added with
    math.fsum: a plain running sum over the k terms was off by up to 5e-13
    relative on a 28,672-block summary, fsum by under 1e-15, at the same
    cost.
    """
    # A merged-away id has internal_e and d_value 0, and so has a term of
    # 0 in each sum, as has a live one with no edges; fsum is the same
    # without them.
    size = np.asarray(summary.size_n)
    internal = np.asarray(summary.internal_e)
    d_value = np.asarray(summary.d_value)
    has_edges = internal != 0
    internal = internal[has_edges].astype(np.float64)
    pairs = size[has_edges].astype(np.float64)
    # every integer here is below 2^53, so each float operation rounds
    # once, as in the same expression over Python ints
    internal = math.fsum((internal * internal
                          / (pairs * (pairs - 1.0) / 2.0)).tolist())
    has_d = d_value != 0.0
    scaled_d = math.fsum((d_value[has_d] / size[has_d]).tolist())
    return 4.0 * summary.original_edge_count - 4.0 * internal - 2.0 * scaled_d


# ----------------------------------------------------------------------
# structural queries

def _block_degree(summary: SummaryGraph, block: int) -> float:
    cross = sum(edge.cross_e for edge in summary.adj[block].values())
    return (2.0 * summary.internal_e[block] + cross) / summary.size_n[block]


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


# wedges tested per numpy pass of the triangle kernel: bounds its transient
# arrays (under 100 bytes per wedge) whatever the graph's wedge count
_WEDGE_CHUNK = 1 << 14


def _triangles(indptr, indices):
    """Yield every triangle of an undirected graph in CSR form once, in
    chunks of at most ``_WEDGE_CHUNK`` tested wedges (or one edge's, when
    that is more): per chunk, the rows of the three corners and, aligned
    with them, the positions in ``indices`` of the edge opposite each.

    Each edge points from the lower to the higher (degree, row) rank, so
    a triangle is found once, at its lowest-ranked corner, as a pair of
    that corner's forward edges (a wedge) whose far ends are joined. The
    forward edges are sorted as int64 keys rank*n + rank, and
    np.searchsorted looks up each wedge's closing edge. Ranking by
    degree keeps every forward list short (under sqrt(2m) long).
    """
    n = len(indptr) - 1
    degree = np.diff(indptr)
    by_rank = np.argsort(degree, kind="stable")
    rank = np.empty(n, np.int32)
    rank[by_rank] = np.arange(n, dtype=np.int32)
    tail = np.repeat(rank, degree)
    head = rank[indices]
    forward = np.flatnonzero(tail < head)
    low = tail[forward]
    high = head[forward]
    del tail, head
    # int64 keys from int32 ranks, under numpy 1's value-based casting too
    keys = np.multiply(low, n, dtype=np.int64) + high
    order = np.argsort(keys)
    keys, forward, low, high = keys[order], forward[order], low[order], high[order]
    del order
    # each forward edge opens a wedge with every later edge of its row
    opens = (np.cumsum(np.bincount(low, minlength=n))[low]
             - np.arange(1, len(keys) + 1))
    ends = np.cumsum(opens)
    start = 0
    while start < len(keys):
        limit = ends[start] - opens[start] + _WEDGE_CHUNK
        stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
        count = opens[start:stop]
        first = np.repeat(np.arange(start, stop), count)
        # the wedges of edge p pair it with edges p+1 .. p+opens[p]
        second = np.arange(len(first)) + np.repeat(
            np.arange(start + 1, stop + 1) - (np.cumsum(count) - count), count)
        wanted = np.multiply(high[first], n, dtype=np.int64) + high[second]
        at = np.searchsorted(keys, wanted)
        np.minimum(at, len(keys) - 1, out=at)
        hit = keys[at] == wanted
        first, second, at = first[hit], second[hit], at[hit]
        yield ((by_rank[low[first]], by_rank[high[first]], by_rank[high[second]]),
               (forward[at], forward[second], forward[first]))
        start = stop


def triangle_count_exact(original: SummaryGraph | InputGraph) -> int:
    """Triangles in the original graph, each counted once."""
    original = _input_graph(original)
    return sum(len(corners[0]) for corners, _ in
               _triangles(original.indptr, original.indices))


def triangle_estimate(summary: SummaryGraph) -> float:
    """Expected triangle count under the reconstructed edge densities.

    A vertex triple spans one, two or three supernodes. Triples inside one
    block or with two vertices in one block need that block's internal
    density rho_a, so only blocks with internal edges contribute them.
    Over a's neighbours x, the two-in-one-block terms
    C(n_a,2) * rho_a * n_x * (c_ax / (n_a n_x))^2 sum to
    C(n_a,2) * rho_a * d_a / n_a^2, read from the cached ``d_value`` (the
    contract of ``re_closed``): one term per block, not per superedge.
    Triples across three blocks need three superedges, so only triangles
    of the superedge graph contribute (never the cubic loop); the
    triangle kernel finds them, and each one's three superedges give the
    counts. The terms are added with math.fsum, so the total does not
    depend on their order.

    A three-block term is n_a n_b n_c pi_ab pi_bc pi_ac for corners
    a < b < c by id, multiplied in that order, where pi_xy is
    c_xy / (n_x n_y). Every product of two sizes is below 2^53 (for fewer
    than 1.8e8 vertices), so each float64 operation rounds exactly once,
    as the same expression over Python ints does.
    """
    size_n = summary.size_n
    internal_e = summary.internal_e
    adj = summary.adj
    terms = []
    for a in adj:
        if not internal_e[a]:
            continue
        size_a = size_n[a]
        density = _internal_density(summary, a)
        terms.append(math.comb(size_a, 3) * density ** 3)
        terms.append(math.comb(size_a, 2) * density * summary.d_value[a]
                     / (size_a * size_a))
    ids, indptr, indices = _adjacency_arrays(summary)
    superedges = list(chain.from_iterable(map(dict.values, adj.values())))
    size = np.asarray(size_n)[ids]
    for corners, opposite in _triangles(indptr, indices):
        rows = np.stack(corners)
        by_id = np.argsort(ids[rows], axis=0)
        size_a, size_b, size_c = size[np.take_along_axis(rows, by_id, 0)]
        # the edge opposite a joins b and c
        positions = np.take_along_axis(np.stack(opposite), by_id, 0)
        c_bc, c_ac, c_ab = np.fromiter(
            map(attrgetter("cross_e"),
                map(superedges.__getitem__, positions.ravel().tolist())),
            np.int64, positions.size).reshape(positions.shape)
        terms.extend(((size_a * size_b).astype(np.float64) * size_c
                      * (c_ab / (size_a * size_b))
                      * (c_bc / (size_b * size_c))
                      * (c_ac / (size_a * size_c))).tolist())
    return math.fsum(terms)


# ----------------------------------------------------------------------

def _degree_errors(original, vertices, blocks, sample) -> np.ndarray:
    """|expected - input degree| for each vertex of sample, or of vertices
    (in their order) when sample is None; blocks[i] holds vertices[i]."""
    labels = original.labels
    by_label = np.argsort(labels)
    wanted = np.asarray(vertices, np.int64)
    at = np.searchsorted(labels, wanted, sorter=by_label)
    np.minimum(at, len(labels) - 1, out=at)
    rows = by_label[at]
    unknown = np.flatnonzero(labels[rows] != wanted)
    if len(unknown):
        raise ValueError(f"unknown vertex {wanted[unknown[0]]}")
    degrees = np.diff(original.indptr)[rows].astype(np.float64)
    _, position = np.unique(np.frombuffer(blocks, np.int64),
                            return_inverse=True)
    block_degree = np.bincount(position, weights=degrees) / np.bincount(position)
    errors = np.abs(block_degree[position] - degrees)
    if sample is None:
        return errors
    row = dict(zip(vertices, range(len(vertices))))
    try:
        return errors[[row[v] for v in sample]]
    except KeyError as missing:
        raise ValueError(f"unknown vertex {missing.args[0]}") from None


def build_report(original: SummaryGraph | InputGraph, summary: SummaryGraph,
                 sample_of_vertices=None, elapsed_seconds: float = 0.0,
                 oracle_limit: int = 1024) -> QueryErrorReport:
    """Aggregate reconstruction and query errors for a finished summary.

    When the graph is small enough the brute-force oracle cross-checks the
    closed form. Degree and centrality errors are absolute, averaged over
    all original vertices (or the given sample); the triangle error is
    relative. Ground-truth centrality uses the same degree-proportional
    surrogate on the original graph, so the error isolates summarization;
    on a graph without edges both surrogates are 0. An empty sample, a
    vertex unknown to either graph or a vertex count that differs between
    them raises ValueError. ``original`` is read as an ``InputGraph``: one
    of the input gives the same report as a ``SummaryGraph`` copy of it.

    A block's expected degree, (2e_a + sum_x c_ax) / n_a, is the mean
    input degree of its members, as both numerators count the same edge
    ends. So the degrees come from one pass over ``summary.membership()``
    and the input degrees, with no walk over superedges; as both
    numerators are exact integers, every degree error equals the one
    ``degree_estimate`` gives bit for bit. RE is ``re_closed``, O(k); the
    whole report is O(n) plus the two triangle counts, which share one
    numpy kernel (``_triangles``).
    """
    original = _input_graph(original)
    re1 = re_closed(summary)
    vertices, blocks = summary.membership()
    sample = None
    if sample_of_vertices is None:
        if len(vertices) != len(original.labels):
            raise ValueError(f"summary holds {len(vertices)} vertices, the "
                             f"original graph {len(original.labels)}")
    else:
        sample = list(sample_of_vertices)
        if not sample:
            raise ValueError("empty vertex sample")
    if original.original_vertex_count <= oracle_limit:
        brute = re_brute(original, summary, oracle_limit)
        if abs(re1 - brute) > 1e-9 * max(1.0, abs(brute)):
            raise AssertionError(
                f"closed-form RE {re1} disagrees with brute force {brute}")
    degree_errors = _degree_errors(original, vertices, blocks, sample)
    two_m = 2.0 * original.original_edge_count
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
