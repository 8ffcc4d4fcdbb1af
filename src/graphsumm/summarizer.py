"""Greedy pair-merge summarization with weighted candidate sampling.

Each iteration samples a handful of candidate supernode pairs (two weighted
draws per pair, the partner drawn with the first node's mass excluded when
the two coincide), scores every candidate by how much the l1 reconstruction
error would drop if the pair were merged, merges the best one, and patches
the sampling weights of the merged node and its neighbors. The score of a
pair has a closed form whose only non-constant part is a cross term over
common neighbors, which the exact score computes in O(min(deg a, deg b)).
In sketch mode a count-min inner-product estimate replaces that term in
O(width * depth), but only for a pair whose two degrees both exceed
width * depth; every other pair is scored exactly, so every scoring costs
O(min(deg a, deg b, width * depth)).

Sketch mode therefore keeps a sketch only for the heavy nodes, those of
degree above width * depth. A merge of a and b into z raises no other
node's degree: a neighbor of one of them trades that key for z, and a
neighbor of both trades two keys for one. So only z can become heavy, and
a node that falls to width * depth or below can never need its sketch
again.

After a merge, one walk over z's neighbors gathers everything the patches
need: each neighbor's new weight, its tree slot and, for a heavy neighbor
that stays heavy, its counts towards z and towards b (read from b's
adjacency map, which the merge leaves intact; the count towards a is the
difference). A heavy neighbor that fell to width * depth loses its sketch.
The tree then takes all leaf changes in one batch. Each sketch is the row
of one array at its node's tree slot: z's row is built from its adjacency
when z is heavy, and three writes move a's and b's coordinates out of the
heavy neighbors' rows and z's coordinate in. Every tree sum and sketch cell
gets the same float operations, in the same order, as patching one node or
coordinate at a time would give.

Scoring is read-only: the candidate scorings of one iteration may safely run
concurrently. Sampling, merging, and weight/sketch updates mutate shared
state and are sequential.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cm_sketch import CountMinSketch, SketchRows, make_hash_seeds
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

    The pair's own coordinates (b inside a's vector and a inside b's) are
    excluded from the estimate using their exactly-known values, so the
    estimate targets the sum over i != a,b. The cross term only ever gets
    overestimated and enters the score positively, hence
    score_approx >= score_exact up to float rounding.
    """
    _check_pair(g, a, b)
    e_ab = g.cross_count(a, b)
    if e_ab:
        size_a = g.nodes[a].size_n
        size_b = g.nodes[b].size_n
        exclude = ((b, e_ab / math.sqrt(size_b), 0.0),
                   (a, 0.0, e_ab / math.sqrt(size_a)))
    else:
        exclude = ()
    cross = sketches[a].inner_product_estimate(sketches[b], exclude=exclude)
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

def build_sketches(g: SummaryGraph, width: int, depth: int, seeds,
                   slot_of: dict[int, int]) -> SketchRows:
    """The sketches a run starts with, all sharing seeds: a row, at slot
    slot_of[a], for each alive node a whose degree exceeds width * depth,
    where slot_of maps the alive ids one-to-one onto range(alive count).
    Every alive id is hashed once per hash row into the bucket table."""
    sketches = SketchRows(slot_of, len(slot_of), width, depth, seeds)
    heavy = width * depth
    nodes = g.nodes
    for a, entries in g.adj.items():
        if len(entries) > heavy:
            sketches.build(a, [slot_of[x] for x in entries],
                           [edge.cross_e for edge in entries.values()],
                           [nodes[x].size_n for x in entries])
    return sketches


class Summarizer:
    """Drives the merge loop; exposes the tree and sketches for inspection."""

    def __init__(self, g: SummaryGraph, cfg: SummarizerConfig):
        if cfg.target_k > g.alive_count:
            raise ValueError(f"target_k={cfg.target_k} exceeds "
                             f"{g.alive_count} alive nodes")
        self.graph = g
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.tree = SamplingTree.build(
            [(a, node_weight(g, a)) for a in g.alive_ids()])
        self.sketches = None
        if cfg.score_mode == "sketch":
            # a node of higher degree has a sketch (see the module docstring)
            self.heavy_degree = cfg.sketch_width * cfg.sketch_depth
            seeds = make_hash_seeds(cfg.sketch_depth, cfg.seed)
            self.sketches = build_sketches(g, cfg.sketch_width, cfg.sketch_depth,
                                           seeds, self.tree.slot_of)
        self._sample_rule = parse_sample_rule(cfg.sample_rule)
        self.iterations = 0
        self.last_candidates: list[ScoredPair] = []

    def score(self, a: int, b: int) -> float:
        """Exact unless both a and b have sketches, i.e. both are heavy."""
        sketches = self.sketches
        if sketches is not None and a in sketches and b in sketches:
            return score_approx(self.graph, a, b, sketches)
        return score_exact(self.graph, a, b)

    def step(self) -> int:
        """One iteration: sample, score, merge the argmax pair (first
        encountered wins ties), patch weights and sketches. Returns the
        merged node's id."""
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

        nodes = g.nodes
        adj = g.adj
        tree = self.tree
        tree_slot = tree.slot_of
        sketches = self.sketches
        if sketches is not None:
            size_a = nodes[a].size_n
            size_b = nodes[b].size_n
            adj_b = adj[b]
            heavy = self.heavy_degree
            sketches.pop(a, None)
            sketches.pop(b, None)
            patched = []
            cross_z = []
            cross_b = []
        z = g.merge(a, b)

        # The one walk over z's neighbors (see the module docstring). The
        # weight is node_weight's, inlined: -(4d/n) - sq equals -sq - 4d/n
        # bit for bit.
        adj_z = adj[z]
        slots = []
        weights = []
        if sketches is not None:
            build = len(adj_z) > heavy
            counts = []
            sizes = []
        for x, edge in adj_z.items():
            node = nodes[x]
            size = node.size_n
            f = -(4.0 * node.d_value / size)
            internal = node.internal_e
            if internal:
                f -= 4.0 * internal * internal / (size * (size - 1) / 2.0)
            weights.append(-1.0 / f if f else 0.0)
            slot = tree_slot[x]
            slots.append(slot)
            if sketches is not None:
                if build:
                    counts.append(edge.cross_e)
                    sizes.append(size)
                if x in sketches:
                    if len(adj[x]) > heavy:
                        patched.append(slot)
                        cross_z.append(edge.cross_e)
                        edge_b = adj_b.get(x)
                        cross_b.append(edge_b.cross_e if edge_b is not None else 0)
                    else:
                        del sketches[x]
        tree.merge_leaves(a, b, z, node_weight(g, z), slots, weights)

        if sketches is not None:
            sketches.place(z)
            if build:
                sketches.build(z, slots, counts, sizes)
            if patched:
                # Detach a, detach b, attach z: each writes one coordinate
                # into all of the heavy neighbors' rows at once, in that
                # order per cell.
                rows = np.array(patched, np.intp)
                cross_z = np.array(cross_z, np.float64)
                cross_b = np.array(cross_b, np.float64)
                # A neighbor of only one of a and b gets -0.0 for the
                # other, which leaves every float it is added to
                # bit-identical.
                sketches.add(rows, a, (cross_z - cross_b) / -math.sqrt(size_a))
                sketches.add(rows, b, cross_b / -math.sqrt(size_b))
                sketches.add(rows, z, cross_z * (1.0 / math.sqrt(nodes[z].size_n)))
        self.iterations += 1
        return z

    def run(self) -> SummaryGraph:
        while self.graph.alive_count > self.cfg.target_k:
            self.step()
        return self.graph


def summarize(g: SummaryGraph, cfg: SummarizerConfig) -> SummaryGraph:
    """Merge the graph down to cfg.target_k supernodes in place."""
    return Summarizer(g, cfg).run()
