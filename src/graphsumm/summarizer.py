"""Greedy pair-merge summarization with weighted candidate sampling.

Each iteration samples a handful of candidate supernode pairs (two weighted
draws per pair, the partner drawn with the first node's mass excluded when
the two coincide), scores every candidate by how much the l1 reconstruction
error would drop if the pair were merged, merges the best one, and patches
the sampling weights of the merged node and its neighbors. The score of a
pair has a closed form whose only non-constant part is a cross term over
common neighbors, which the exact score computes in O(min(deg a, deg b)),
checking the pair and assembling the closed form in two Python frames (its
own and the term assembly it shares with the sketch score); when no pair can
be sketch-scored the loop calls it directly. In sketch mode a count-min
inner-product estimate replaces that term, but only for a pair whose two
degrees both exceed width * depth; every other pair is scored exactly.

Sketch mode keeps no sketch between scores: it builds a heavy pair's two
sketches from the current adjacency when it scores the pair, so a sketch
score costs O(deg a + deg b + width * depth). Sketches kept through merges
would need patching at every merge of a neighbor, and were almost never read
twice: on the benchmark's dense-sketch graph nearly every sketch score had
to build both of its sketches anyway.

Nodes are the graph's dense ids, which are also the tree's leaf slots, and
the loop reads node statistics from the graph's arrays. ``node_weights``
is the only definition of a node's sampling mass: the tree is built from it,
and after a merge of a and b, which keeps a, one pass of it over a's
neighbors gives their new weights. The tree takes all leaf changes in one
batch: a's leaf takes the merged weight and b's is unbound. Every tree sum
gets the same float operations, in the same order, as patching one leaf at
a time would give.

Scoring is read-only, as each sketch it builds is its own: the candidate
scorings of one iteration may safely run concurrently. Sampling, merging
and weight updates mutate shared state and are sequential.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

import numpy as np

from .cm_sketch import CountMinSketch, make_hash_seeds
from .sampling_tree import SamplingTree
from .summary_graph import SummaryGraph

@dataclass
class ScoredPair:
    """One scored merge candidate; a != b and both alive when scored."""
    a: int
    b: int
    score: float


@dataclass
class SummarizerConfig:
    target_k: int
    sample_rule: str = "logn"
    score_mode: str = "exact"          # "exact" or "sketch"
    sketch_width: int = 100
    sketch_depth: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.target_k < 1:
            raise ValueError("target_k must be at least 1")
        if self.score_mode not in ("exact", "sketch"):
            raise ValueError(f"unknown score mode {self.score_mode!r}")
        if self.score_mode == "sketch" and (self.sketch_width < 1 or self.sketch_depth < 1):
            raise ValueError("sketch width and depth must be positive")
        sample_size(self.sample_rule, 1)  # validates


def sample_size(rule: str, n_alive: int) -> int:
    """Candidate pairs to draw this iteration, as a function of n(t): at
    least one, else ceil(log2 n) for "logn", ceil(5 log2 n) for "5logn",
    ceil(log2(n)^2) for "log2n", and N for "fixed:N", N written in ASCII
    digits without leading zeros. Raises ValueError for any other rule."""
    log_n = math.log2(n_alive) if n_alive > 1 else 0.0
    if rule == "logn":
        return max(1, math.ceil(log_n))
    if rule == "5logn":
        return max(1, math.ceil(5.0 * log_n))
    if rule == "log2n":
        return max(1, math.ceil(log_n * log_n))
    if not rule.startswith("fixed:"):
        raise ValueError(f"unknown sample rule {rule!r}")
    digits = rule[len("fixed:"):]
    # int() would also take "1_0", " 7", "+5", non-ASCII digits, a
    # trailing newline and leading zeros, each a spelling other than the
    # value it reads, which the report and the manifest would then name
    if not (digits.isascii() and digits.isdigit()) or str(int(digits)) != digits:
        raise ValueError(f"bad fixed sample rule {rule!r}")
    size = int(digits)
    if size < 1:
        raise ValueError("fixed sample size must be at least 1")
    return size


# ----------------------------------------------------------------------
# per-node weight and per-pair score

# The mass of a node without edges, whose error contribution is 0. A node
# with an edge has |f| <= 8m, so a mass of at least 1/(8m) > 2^-66, and any
# number of floors sums to under 2^-900, far below half an ulp of that: no
# tree sum over a node with an edge changes, and the floors are drawn, each
# equally often, only once no other node carries mass.
_EDGELESS_WEIGHT = 2.0 ** -1000


def node_weights(g: SummaryGraph, ids) -> list[float]:
    """Sampling mass of each node in ids: the negated reciprocal of its
    (non-positive) error-contribution value, or _EDGELESS_WEIGHT for a node
    with no edges at all. The only definition of the mass; the merge loop
    takes every weight from here."""
    size_n = g.size_n
    internal_e = g.internal_e
    d_value = g.d_value
    weights = []
    for x in ids:
        size = size_n[x]
        f = -(4.0 * d_value[x] / size)
        internal = internal_e[x]
        if internal:
            f -= 4.0 * internal * internal / (size * (size - 1) / 2.0)
        weights.append(-1.0 / f if f else _EDGELESS_WEIGHT)
    return weights


def node_weight(g: SummaryGraph, a: int) -> float:
    """Sampling mass of one node (see node_weights)."""
    return node_weights(g, (a,))[0]


def _score_from_cross(g: SummaryGraph, a: int, b: int, cross: float) -> float:
    """Assemble the score of alive a != b given the cross term
    sum_{i != a,b} e_ai*e_bi/n_i. Each 4*e^2/C(n,2) term is 0 when e is 0,
    which covers n < 2 (e <= C(n,2))."""
    edge = g.adj[a].get(b)
    e_ab = 0 if edge is None else edge.cross_e
    size_n = g.size_n
    internal_e = g.internal_e
    d_value = g.d_value
    size_a = size_n[a]
    size_b = size_n[b]
    size_z = size_a + size_b
    d_a = d_value[a]
    d_b = d_value[b]
    internal_a = internal_e[a]
    internal_b = internal_e[b]
    merged_internal = internal_a + internal_b + e_ab
    if e_ab:
        pair_sq = 4.0 * e_ab * e_ab / (size_a * size_b)
        # sum over i != a,b of e_ai^2/n_i, from the cached full sums
        sum_sq_a = d_a - e_ab * e_ab / size_b
        sum_sq_b = d_b - e_ab * e_ab / size_a
    else:
        pair_sq = 0.0
        sum_sq_a = d_a
        sum_sq_b = d_b
    internal_sq_a = (4.0 * internal_a * internal_a / (size_a * (size_a - 1) / 2.0)
                     if internal_a else 0.0)
    internal_sq_b = (4.0 * internal_b * internal_b / (size_b * (size_b - 1) / 2.0)
                     if internal_b else 0.0)
    internal_sq_z = (4.0 * merged_internal * merged_internal
                     / (size_z * (size_z - 1) / 2.0) if merged_internal else 0.0)
    return (-internal_sq_a
            - 4.0 * d_a / size_a
            + pair_sq
            - internal_sq_b
            - 4.0 * d_b / size_b
            + internal_sq_z
            + 4.0 / size_z * (sum_sq_a + sum_sq_b + 2.0 * cross))


def score_exact(g: SummaryGraph, a: int, b: int) -> float:
    """Drop in l1 reconstruction error caused by merging a and b, exactly.
    Raises ValueError unless a and b are distinct alive nodes.

    Cost is O(min(deg a, deg b)) on top of constant-time terms: the cross
    term walks the shorter adjacency map and probes the longer one. Neither
    a nor b is a key of the other's map, so the probe alone leaves out the
    pair's own superedge.
    """
    adj = g.adj
    adj_a = adj.get(a)
    adj_b = adj.get(b)
    if a == b or adj_a is None or adj_b is None:
        raise ValueError("invalid pair")
    if len(adj_b) < len(adj_a):
        shorter, longer = adj_b, adj_a
    else:
        shorter, longer = adj_a, adj_b
    size_n = g.size_n
    cross = 0.0
    for x in filter(longer.__contains__, shorter):
        cross += shorter[x].cross_e * longer[x].cross_e / size_n[x]
    return _score_from_cross(g, a, b, cross)


def score_approx(g: SummaryGraph, a: int, b: int,
                 sketches: Mapping[int, CountMinSketch]) -> float:
    """Like score_exact but with the cross term estimated from the two
    nodes' sketches in O(width * depth).

    sketches[a] is a's vector without coordinate b, and sketches[b] is b's
    without coordinate a, as build_sketches(g, (a, b), ...) gives them; their
    inner product is then the cross term, the sum over i != a,b. The estimate
    never underestimates it, and the cross term enters the score positively,
    hence score_approx >= score_exact up to float rounding.
    """
    adj = g.adj
    if a == b or a not in adj or b not in adj:
        raise ValueError("invalid pair")
    cross = sketches[a].inner_product_estimate(sketches[b])
    return _score_from_cross(g, a, b, cross)


# ----------------------------------------------------------------------
# sampling

def sample_pairs(g: SummaryGraph, tree: SamplingTree, s: int,
                 rng: random.Random) -> list[tuple[int, int]]:
    """Draw s candidate pairs of distinct nodes, two weighted draws per pair.

    Only when the partner equals the first draw is it drawn once more, with
    the first node's leaf zeroed; that gives the same distribution as
    redrawing until distinct, and the leaf is then restored bit-exactly (the
    tree's sums depend only on its leaves). Every draw is one descent of the
    tree: every alive node carries mass, a node without edges the floor
    _EDGELESS_WEIGHT, so once no other node has mass the draws are uniform
    over the edgeless ones, and any two alive nodes always yield a pair.
    Raises ValueError when the tree has mass on fewer than two vertices.
    The tree alone is read; g is not.
    """
    total = tree.total_weight
    get_leaf = tree.get_leaf
    random = rng.random
    pairs = []
    for _ in range(s):
        first = get_leaf(random() * total)
        partner = get_leaf(random() * total)
        if partner == first:
            partner = _draw_other(tree, first, rng)
        pairs.append((first, partner))
    return pairs


def _draw_other(tree: SamplingTree, first: int, rng: random.Random) -> int:
    """One draw conditioned on differing from first: weighted from the mass
    left without first."""
    weight = tree.weight_of(first)
    tree.update_weight(first, 0.0)
    try:
        return tree.get_leaf(rng.random() * tree.total_weight)
    finally:
        tree.update_weight(first, weight)


# ----------------------------------------------------------------------
# main loop

def build_sketches(g: SummaryGraph, ids, width: int, depth: int,
                   seeds: tuple[tuple[int, int], ...]) -> dict[int, CountMinSketch]:
    """The sketch of each alive node in ids: its current neighbor vector,
    cross_e(a,x)/sqrt(size_n(x)) at the coordinate of x's label, with the
    coordinates of the other ids left out. A left-out neighbor gets the
    value 0, and adding 0.0 leaves every cell as omitting the coordinate
    would. Hashing labels, not ids, gives every sketch the cells it would
    have with the input's own vertex ids as ids."""
    size_n = g.size_n
    label = g.labels.__getitem__
    ids = dict.fromkeys(ids)  # in order, with constant-time membership
    sketches = {}
    for a in ids:
        # a is never its own neighbor, so testing x against all of ids
        # leaves out exactly the other ids
        entries = g.adj[a]
        count = len(entries)
        values = np.fromiter([0 if x in ids else edge.cross_e
                              for x, edge in entries.items()], np.float64, count)
        values /= np.sqrt(np.fromiter(map(size_n.__getitem__, entries),
                                      np.float64, count))
        sketches[a] = CountMinSketch.from_vector(width, depth, seeds,
                                                 map(label, entries), values)
    return sketches


class Summarizer:
    """Drives the merge loop; exposes the tree for inspection."""

    def __init__(self, g: SummaryGraph, cfg: SummarizerConfig):
        if cfg.target_k > g.alive_count:
            raise ValueError(f"target_k={cfg.target_k} exceeds "
                             f"{g.alive_count} alive nodes")
        self.graph = g
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        ids = list(g.alive_ids())
        self.tree = SamplingTree.build(zip(ids, node_weights(g, ids)))
        self.heavy_degree = self.hash_seeds = None
        # A degree is at most alive_count - 1, and alive_count only falls:
        # at or above that no pair is ever heavy, so no seeds are drawn.
        if (cfg.score_mode == "sketch"
                and cfg.sketch_width * cfg.sketch_depth < g.alive_count - 1):
            self.heavy_degree = cfg.sketch_width * cfg.sketch_depth
            self.hash_seeds = make_hash_seeds(cfg.sketch_depth, cfg.seed)
        self.last_candidates: list[ScoredPair] = []

    def score(self, a: int, b: int) -> float:
        """Exact, except in sketch mode for a pair whose two degrees both
        exceed width * depth: its cross term is estimated from sketches of
        the two nodes built now."""
        g = self.graph
        heavy = self.heavy_degree
        if heavy is not None:
            adj = g.adj
            if len(adj[a]) > heavy and len(adj[b]) > heavy:
                cfg = self.cfg
                return score_approx(g, a, b, build_sketches(
                    g, (a, b), cfg.sketch_width, cfg.sketch_depth, self.hash_seeds))
        return score_exact(g, a, b)

    def step(self) -> int:
        """One iteration: sample, score, merge the argmax pair (a, b)
        (first encountered wins ties), patch weights. Returns a, the
        merged node's id."""
        g = self.graph
        s = sample_size(self.cfg.sample_rule, g.alive_count)
        pairs = sample_pairs(g, self.tree, s, self.rng)
        # without heavy pairs score exactly, without self.score; looked up
        # at each step, so a patched score_exact sees every exact score
        score = partial(score_exact, g) if self.heavy_degree is None else self.score
        candidates = [ScoredPair(a, b, score(a, b)) for a, b in pairs]
        self.last_candidates = candidates
        best = max(candidates, key=attrgetter("score"))
        a, b = best.a, best.b
        g.merge(a, b)
        neighbors = g.adj[a]
        self.tree.merge_leaves(a, b, node_weight(g, a), neighbors,
                               node_weights(g, neighbors))
        return a

    def run(self) -> SummaryGraph:
        while self.graph.alive_count > self.cfg.target_k:
            self.step()
        return self.graph


def summarize(g: SummaryGraph, cfg: SummarizerConfig) -> SummaryGraph:
    """Merge the graph down to cfg.target_k supernodes in place."""
    return Summarizer(g, cfg).run()
