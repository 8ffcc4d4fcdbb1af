"""Greedy pair-merge summarization with weighted candidate sampling.

Each iteration samples a handful of candidate supernode pairs (two weighted
draws per pair, the partner drawn with the first node's mass excluded when
the two coincide), scores every candidate by how much the l1 reconstruction
error would drop if the pair were merged, merges the best one, and patches
the sampling weights of the merged node and its neighbors. The score of a
pair has a closed form whose only non-constant part is a cross term over
common neighbors, which the exact score computes in O(min(deg a, deg b)).
In sketch mode a count-min inner-product estimate replaces that term, but
only for a pair whose two degrees both exceed width * depth; every other
pair is scored exactly.

Sketch mode keeps no sketch between scores: it builds a heavy pair's two
sketches from the current adjacency when it scores the pair, so a sketch
score costs O(deg a + deg b + width * depth). Sketches kept through merges
would need patching at every merge of a neighbor, and were almost never read
twice: on the benchmark's dense-sketch graph nearly every sketch score had
to build both of its sketches anyway.

After a merge, one walk over z's neighbors gathers each neighbor's new
weight and tree slot, and the tree takes all leaf changes in one batch.
Every tree sum gets the same float operations, in the same order, as
patching one leaf at a time would give.

Scoring is read-only, as each sketch it builds is its own: the candidate
scorings of one iteration may safely run concurrently. Sampling, merging
and weight updates mutate shared state and are sequential.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cm_sketch import CountMinSketch, make_hash_seeds
from .sampling_tree import SamplingTree
from .summary_graph import SummaryGraph

SAMPLE_RULES = ("logn", "5logn", "log2n")  # plus "fixed:N"


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
        parse_sample_rule(self.sample_rule)  # validates


def parse_sample_rule(rule: str):
    """Split a sample-size rule into (kind, fixed size or None)."""
    if rule in SAMPLE_RULES:
        return rule, None
    if rule.startswith("fixed:"):
        try:
            size = int(rule.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed sample rule {rule!r}") from None
        if size < 1:
            raise ValueError("fixed sample size must be at least 1")
        return "fixed", size
    raise ValueError(f"unknown sample rule {rule!r}")


def sample_size(rule: str, n_alive: int) -> int:
    """Candidate pairs to draw this iteration, as a function of n(t)."""
    return _parsed_sample_size(parse_sample_rule(rule), n_alive)


def _parsed_sample_size(parsed_rule, n_alive: int) -> int:
    kind, fixed = parsed_rule
    if kind == "fixed":
        return fixed
    log_n = math.log2(n_alive) if n_alive > 1 else 0.0
    if kind == "logn":
        return max(1, math.ceil(log_n))
    if kind == "5logn":
        return max(1, math.ceil(5.0 * log_n))
    return max(1, math.ceil(log_n * log_n))  # log2n


# ----------------------------------------------------------------------
# per-node weight and per-pair score

def _internal_sq_term(internal_e: int, size_n: int) -> float:
    """4*e^2 / C(n,2), with the n<2 case defined as 0 (e is 0 then)."""
    if size_n < 2 or internal_e == 0:
        return 0.0
    return 4.0 * internal_e * internal_e / (size_n * (size_n - 1) / 2.0)


def node_weight(g: SummaryGraph, a: int) -> float:
    """Sampling mass of a node: the negated reciprocal of its (non-positive)
    error-contribution value, or 0 for a node with no edges at all."""
    node = g.nodes[a]
    f = -_internal_sq_term(node.internal_e, node.size_n) \
        - 4.0 * node.d_value / node.size_n
    if f == 0.0:
        return 0.0
    return -1.0 / f


def _score_from_cross(g: SummaryGraph, a: int, b: int, cross: float) -> float:
    """Assemble the score given the cross term sum_{i != a,b} e_ai*e_bi/n_i."""
    node_a = g.nodes[a]
    node_b = g.nodes[b]
    size_a = node_a.size_n
    size_b = node_b.size_n
    size_z = size_a + size_b
    e_ab = g.cross_count(a, b)
    pair_sq = 4.0 * e_ab * e_ab / (size_a * size_b) if e_ab else 0.0
    # sum over i != a,b of e_ai^2/n_i, from the cached full sums
    sum_sq_a = node_a.d_value - (e_ab * e_ab / size_b if e_ab else 0.0)
    sum_sq_b = node_b.d_value - (e_ab * e_ab / size_a if e_ab else 0.0)
    merged_internal = node_a.internal_e + node_b.internal_e + e_ab
    return (-_internal_sq_term(node_a.internal_e, size_a)
            - 4.0 * node_a.d_value / size_a
            + pair_sq
            - _internal_sq_term(node_b.internal_e, size_b)
            - 4.0 * node_b.d_value / size_b
            + _internal_sq_term(merged_internal, size_z)
            + 4.0 / size_z * (sum_sq_a + sum_sq_b + 2.0 * cross))


def _check_pair(g: SummaryGraph, a: int, b: int) -> None:
    if a == b or not g.is_alive(a) or not g.is_alive(b):
        raise ValueError("invalid pair")


def score_exact(g: SummaryGraph, a: int, b: int) -> float:
    """Drop in l1 reconstruction error caused by merging a and b, exactly.

    Cost is O(min(deg a, deg b)) on top of constant-time terms: the cross
    term walks the shorter adjacency map and probes the longer one.
    """
    _check_pair(g, a, b)
    adj_a = g.adj[a]
    adj_b = g.adj[b]
    if len(adj_b) < len(adj_a):
        shorter, longer, skip = adj_b, adj_a, a
    else:
        shorter, longer, skip = adj_a, adj_b, b
    nodes = g.nodes
    cross = 0.0
    for x, edge in shorter.items():
        if x == skip:
            continue
        other = longer.get(x)
        if other is not None:
            cross += edge.cross_e * other.cross_e / nodes[x].size_n
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
    _check_pair(g, a, b)
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
    tree's sums depend only on its leaves). When no other node carries mass,
    a zero total weight included, draws are uniform over the alive nodes, so
    any two alive nodes always yield a pair.
    """
    total = tree.total_weight
    if total > 0.0:
        alive = None
        draw = lambda: tree.get_leaf(rng.random() * total)
    else:
        alive = _alive_sorted(g)
        draw = lambda: alive[rng.randrange(len(alive))]
    pairs = []
    for _ in range(s):
        first = draw()
        partner = draw()
        if partner == first:
            partner = _draw_other(g, tree, first, rng, alive)
        pairs.append((first, partner))
    return pairs


def _alive_sorted(g: SummaryGraph) -> list[int]:
    alive = sorted(g.alive_ids())
    if len(alive) < 2:
        raise ValueError("need at least 2 alive nodes to sample a pair")
    return alive


def _draw_other(g: SummaryGraph, tree: SamplingTree, first: int,
                rng: random.Random, alive: list[int] | None) -> int:
    """One draw conditioned on differing from first: weighted from the mass
    left without first, or uniform over the other alive nodes when none is
    left (alive is given when the whole tree is known to be massless)."""
    if alive is None:
        weight = tree.weight_of(first)
        tree.update_weight(first, 0.0)
        rest = tree.total_weight
        partner = tree.get_leaf(rng.random() * rest) if rest > 0.0 else None
        tree.update_weight(first, weight)
        if partner is not None:
            return partner
        alive = _alive_sorted(g)
    # index len-1 stands in for first's own index
    partner = alive[rng.randrange(len(alive) - 1)]
    return alive[-1] if partner == first else partner


# ----------------------------------------------------------------------
# main loop

def build_sketches(g: SummaryGraph, ids, width: int, depth: int,
                   seeds: tuple[tuple[int, int], ...]) -> dict[int, CountMinSketch]:
    """The sketch of each alive node in ids: its current neighbor vector,
    cross_e(a,x)/sqrt(size_n(x)) at coordinate x, with the coordinates of
    the other ids left out. A left-out neighbor gets the value 0, and adding
    0.0 leaves every cell as omitting the coordinate would."""
    nodes = g.nodes
    ids = dict.fromkeys(ids)  # in order, with constant-time membership
    sketches = {}
    for a in ids:
        # a is never its own neighbor, so testing x against all of ids
        # leaves out exactly the other ids
        entries = g.adj[a]
        count = len(entries)
        values = np.fromiter([0 if x in ids else edge.cross_e
                              for x, edge in entries.items()], np.float64, count)
        values /= np.sqrt(np.fromiter([nodes[x].size_n for x in entries],
                                      np.float64, count))
        sketches[a] = CountMinSketch.from_vector(width, depth, seeds, entries, values)
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
        self.tree = SamplingTree.build(
            [(a, node_weight(g, a)) for a in g.alive_ids()])
        self.heavy_degree = self.hash_seeds = None
        # A degree is at most alive_count - 1, and alive_count only falls:
        # at or above that no pair is ever heavy, so no seeds are drawn.
        if (cfg.score_mode == "sketch"
                and cfg.sketch_width * cfg.sketch_depth < g.alive_count - 1):
            self.heavy_degree = cfg.sketch_width * cfg.sketch_depth
            self.hash_seeds = make_hash_seeds(cfg.sketch_depth, cfg.seed)
        self._sample_rule = parse_sample_rule(cfg.sample_rule)
        self.iterations = 0
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
        """One iteration: sample, score, merge the argmax pair (first
        encountered wins ties), patch weights. Returns the merged node's
        id."""
        g = self.graph
        s = _parsed_sample_size(self._sample_rule, g.alive_count)
        pairs = sample_pairs(g, self.tree, s, self.rng)
        best = None
        candidates = []
        for a, b in pairs:
            candidate = ScoredPair(a, b, self.score(a, b))
            candidates.append(candidate)
            if best is None or candidate.score > best.score:
                best = candidate
        self.last_candidates = candidates
        a, b = best.a, best.b
        z = g.merge(a, b)

        # The one walk over z's neighbors (see the module docstring). The
        # weight is node_weight's, inlined: -(4d/n) - sq equals -sq - 4d/n
        # bit for bit.
        nodes = g.nodes
        tree = self.tree
        tree_slot = tree.slot_of
        slots = []
        weights = []
        for x in g.adj[z]:
            node = nodes[x]
            size = node.size_n
            f = -(4.0 * node.d_value / size)
            internal = node.internal_e
            if internal:
                f -= 4.0 * internal * internal / (size * (size - 1) / 2.0)
            weights.append(-1.0 / f if f else 0.0)
            slots.append(tree_slot[x])
        tree.merge_leaves(a, b, z, node_weight(g, z), slots, weights)
        self.iterations += 1
        return z

    def run(self) -> SummaryGraph:
        while self.graph.alive_count > self.cfg.target_k:
            self.step()
        return self.graph


def summarize(g: SummaryGraph, cfg: SummarizerConfig) -> SummaryGraph:
    """Merge the graph down to cfg.target_k supernodes in place."""
    return Summarizer(g, cfg).run()
