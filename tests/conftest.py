"""Shared helpers: random instances, independent oracles, dataset lookup."""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

import pytest

from graphsumm import CountMinSketch, SummaryGraph

DATA_DIR = Path(__file__).parent / "data"

DATASETS = {
    "facebook": "facebook_combined.txt",
    "enron": "email-Enron.txt",
}


# ----------------------------------------------------------------------
# random instances

def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Erdos-Renyi edge list over vertices 0..n-1, guaranteed non-empty."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if not edges:
        edges = [(rng.randrange(n - 1), n - 1)]
    return edges


def constant_degree_edges(n: int, avg_degree: int, rng: random.Random):
    """Random multigraph-ish edge list with ~avg_degree mean degree."""
    edges = []
    for _ in range(n * avg_degree // 2):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return edges


def preferential_attachment_edges(n: int, m: int, rng: random.Random):
    """Barabasi-Albert edge list: each vertex from m on links to m distinct
    earlier vertices drawn with probability proportional to degree. Same
    algorithm as the benchmark's generator."""
    edges = []
    endpoints: list[int] = []  # each vertex repeated once per incident edge
    targets = list(range(m))
    for source in range(m, n):
        edges.extend((source, t) for t in targets)
        endpoints.extend(targets)
        endpoints.extend([source] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(endpoints[rng.randrange(len(endpoints))])
        targets = sorted(chosen)
    return edges


def random_partition(vertices, blocks: int, rng: random.Random) -> list[list[int]]:
    """Partition into at most `blocks` non-empty classes."""
    vertices = list(vertices)
    rng.shuffle(vertices)
    blocks = min(blocks, len(vertices))
    classes = [[vertices[i]] for i in range(blocks)]
    for v in vertices[blocks:]:
        classes[rng.randrange(blocks)].append(v)
    return classes


def merge_partition(g: SummaryGraph, partition) -> SummaryGraph:
    """Realize a partition by merging each class down to one supernode."""
    for block in partition:
        current = block[0]
        for v in block[1:]:
            current = g.merge(current, v)
    return g


def cross_count(g: SummaryGraph, a: int, b: int) -> int:
    """Superedge multiplicity between live supernodes a and b, 0 when
    absent."""
    edge = g.adj[a].get(b)
    return edge.cross_e if edge is not None else 0


def member_sets(g: SummaryGraph) -> dict[int, set[int]]:
    """Each live supernode's vertex set, grouped from the replayed
    membership."""
    sets: dict[int, set[int]] = {a: set() for a in g.nodes}
    for v, block in zip(*g.membership()):
        sets[block].add(v)
    return sets


# ----------------------------------------------------------------------
# independent oracles

def re_walk(summary: SummaryGraph) -> float:
    """l1 reconstruction error walked over every block and superedge, in
    O(supernodes + superedges): the form re_closed had before it read the
    cached d_value sums, kept as a reference that never reads d_value."""
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


def re_closed_loop(summary: SummaryGraph) -> float:
    """re_closed's formula added up by a Python loop over Python ints and
    floats, as re_closed did before it read the statistics arrays with
    numpy; the two must agree bit for bit."""
    internal = math.fsum(
        node.internal_e ** 2 / (node.size_n * (node.size_n - 1) / 2.0)
        for node in summary.nodes.values() if node.internal_e)
    scaled_d = math.fsum(node.d_value / node.size_n
                         for node in summary.nodes.values())
    return 4.0 * summary.original_edge_count - 4.0 * internal - 2.0 * scaled_d


def forward_triangles(adj):
    """Yield every triangle a < b < c of a graph's adjacency maps: each
    node keeps the set of its neighbours with a larger id, and the
    triangles at an edge a < b are the common members of a's and b's
    sets. The enumeration the triangle queries used before their numpy
    kernel, kept as a reference model."""
    forward = {a: set(filter(a.__lt__, entries)) for a, entries in adj.items()}
    for a, later in forward.items():
        for b in later:
            for c in later & forward[b]:
                yield a, b, c


def score_oracle(g: SummaryGraph, a: int, b: int) -> float:
    """RE drop from merging (a, b), by actually merging a copy; RE is
    re_walk's, so the oracle does not depend on the d_value cache that
    the scores read."""
    before = re_walk(g)
    trial = g.copy()
    trial.merge(a, b)
    return before - re_walk(trial)


def linear_scan_leaf(items: list[tuple[int, float]], r: float) -> int:
    """Reference weighted draw: first leaf (in slot order) whose cumulative
    half-open range [cum, cum + weight) contains r."""
    cum = 0.0
    for vertex, weight in items:
        if r < cum + weight:
            return vertex
        cum += weight
    raise ValueError(f"r={r} beyond total weight {cum}")


def sparse_int_vector(rng: random.Random, universe: int,
                      lo: int, hi: int) -> dict[int, float]:
    """Sparse non-negative vector with small integer values (so that sums
    and products are exact in float64)."""
    support = rng.sample(range(universe), rng.randint(lo, hi))
    return {c: float(rng.randint(1, 8)) for c in support}


def exact_dot(va: dict[int, float], vb: dict[int, float]) -> float:
    return sum(value * vb[c] for c, value in va.items() if c in vb)


def sketch_of(vec: dict[int, float], width: int, depth: int, seeds) -> CountMinSketch:
    sk = CountMinSketch(width, depth, seeds)
    for c, value in vec.items():
        sk.update(c, value)
    return sk


def l1_mass(sketch: CountMinSketch) -> float:
    """The sketched vector's l1 mass: each coordinate has one cell in row
    0, and every value is non-negative."""
    return float(sketch.cells[0].sum())


def scaled_vector(g: SummaryGraph, a: int, without=()) -> dict[int, float]:
    """a's sketched vector: cross_e(a,x)/sqrt(size_n(x)) at the label of
    each neighbor x not in without, in adjacency order (sketches hash
    labels, not ids)."""
    return {g.labels[x]: edge.cross_e / math.sqrt(g.size_n[x])
            for x, edge in g.adj[a].items() if x not in without}


def pair_sketches(g: SummaryGraph, a: int, b: int, width: int, depth: int,
                  seeds) -> dict:
    """Reference sketches of a pair as score_approx takes them: a's vector
    without coordinate b and b's without a, one update per coordinate."""
    return {x: sketch_of(scaled_vector(g, x, (a, b)), width, depth, seeds)
            for x in (a, b)}


# ----------------------------------------------------------------------
# SNAP datasets (for the benchmark-scale acceptance criteria)

def dataset_path(name: str) -> Path | None:
    """Locate a SNAP dataset in the local candidate directories; None if
    absent. Never downloads, so the suite runs the same offline."""
    filename = DATASETS[name]
    candidates = [DATA_DIR / filename, Path("/root/pkg/data") / filename]
    env_dir = os.environ.get("GRAPHSUMM_DATA_DIR")
    if env_dir:
        candidates.insert(0, Path(env_dir) / filename)
    for path in candidates:
        if path.is_file():
            return path
    return None


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if path is None:
        pytest.skip(f"{DATASETS[name]} not available (no network to SNAP; "
                    f"place it under tests/data/ or set GRAPHSUMM_DATA_DIR)")
    return path
