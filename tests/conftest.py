"""Shared helpers: random instances, independent oracles, dataset lookup."""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

import pytest

from graphsumm import CountMinSketch, SummaryGraph, re_closed

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


def member_sets(g: SummaryGraph) -> dict[int, set[int]]:
    """Each live supernode's vertex set, grouped from the replayed
    membership."""
    sets: dict[int, set[int]] = {a: set() for a in g.nodes}
    for v, block in zip(*g.membership()):
        sets[block].add(v)
    return sets


# ----------------------------------------------------------------------
# independent oracles

def score_oracle(g: SummaryGraph, a: int, b: int) -> float:
    """RE drop from merging (a, b), by actually merging a copy."""
    before = re_closed(g)
    trial = g.copy()
    trial.merge(a, b)
    return before - re_closed(trial)


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


def scaled_vector(g: SummaryGraph, a: int, without=()) -> dict[int, float]:
    """a's sketched vector: cross_e(a,x)/sqrt(size_n(x)) per neighbor x not
    in without, in adjacency order."""
    return {x: edge.cross_e / math.sqrt(g.nodes[x].size_n)
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
