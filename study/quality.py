"""Quality study of the merge loop's sampling weights, offline.

Runs exact-mode summarization on four graph families, two sample rules and
ten graph seeds (100-109, run seed 1), under three weight rules:

- paper: the package as it is. After each merge the merged node and
  every one of its neighbours take their current weights, in one
  ``SamplingTree.merge_leaves`` batch.
- stale: a node's weight is refreshed only when the node itself merges;
  the merged node's neighbours keep theirs. The package's loop, with
  ``merge_leaves`` told of no neighbour. It still computes the
  neighbours' weights that it then drops, so its loop time overstates
  what the stale rule alone would cost.
- uniform: ``graphsumm.summarizer.node_weights`` patched to give every
  node the weight 1.0, which reaches every leaf the loop writes.

For each family and rule it prints one Markdown table row: the median RE/n
under each rule, the paper rule's interquartile range (IQR) over the seeds,
stale minus paper, the seeds on which stale and uniform beat paper, and the
median merge-loop CPU time of each rule. The gate column reads "pass" when
stale's median exceeds paper's by no more than paper's IQR.

Every run checks its summary with ``validate()`` and its tree with
``check_consistency()``, and each rule checks its own hook: under paper
every leaf holds its node's current weight, under stale some leaf does
not, and under uniform every leaf holds 1.0. The script exits 1 if any
check fails. The quartiles are statistics.quantiles' "inclusive" ones
(numpy's default percentiles).

Usage: python study/quality.py [--seeds N]   (N graph seeds from 100)
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from graphsumm import summarizer  # noqa: E402
from graphsumm.evaluation import re_closed  # noqa: E402
from graphsumm.summarizer import Summarizer, SummarizerConfig, node_weight  # noqa: E402
from graphsumm.summary_graph import SummaryGraph  # noqa: E402
from workloads import constant_degree_edges, preferential_attachment_edges  # noqa: E402

RUN_SEED = 1
FIRST_GRAPH_SEED = 100
RULES = ("logn", "log2n")


def sbm_edges(seed: int, n: int = 1024, block: int = 64, p_in: float = 0.3,
              p_out: float = 0.01):
    """Stochastic block model: 16 planted blocks of 64 vertices; each pair
    u < v, in order, is an edge with probability p_in inside a block and
    p_out across blocks, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < (p_in if u // block == v // block else p_out)]


# (name, edge generator of the graph seed, target k); n is the generator's
# vertex count, and RE/n divides by the vertices that have an edge, as the
# benchmark's re_l1_normalized does
FAMILIES = [
    ("constant-degree, n=4096, d=6, k=n/2",
     lambda seed: constant_degree_edges(4096, 6, random.Random(seed)), 2048),
    ("preferential attachment, n=4096, m=5, k=n/4",
     lambda seed: preferential_attachment_edges(4096, 5, random.Random(seed)), 1024),
    ("constant-degree, n=4096, d=40, k=n/4",
     lambda seed: constant_degree_edges(4096, 40, random.Random(seed)), 1024),
    ("SBM, n=1024, 16 blocks, p_in 0.3, p_out 0.01, k=16", sbm_edges, 16),
]


class StaleWeights(Summarizer):
    """The package's loop with every merge's neighbour batch dropped: a
    merge writes only the merged node's leaf and unbinds the other."""

    def __init__(self, g, cfg):
        super().__init__(g, cfg)
        merge_leaves = self.tree.merge_leaves
        self.tree.merge_leaves = (lambda a, b, weight, others, weights:
                                  merge_leaves(a, b, weight, (), []))


def uniform_weights(g, ids):
    return [1.0] * len(ids)


def run(edges, k: int, rule: str, variant: str) -> tuple[float, float]:
    """RE/n and merge-loop CPU seconds of one exact-mode run; raises
    AssertionError if a check fails."""
    g = SummaryGraph.from_edge_list(edges)
    cfg = SummarizerConfig(target_k=k, sample_rule=rule, seed=RUN_SEED)
    patched = summarizer.node_weights
    if variant == "uniform":
        summarizer.node_weights = uniform_weights
    try:
        loop = (StaleWeights if variant == "stale" else Summarizer)(g, cfg)
        start = time.process_time()
        loop.run()
        cpu = time.process_time() - start
    finally:
        summarizer.node_weights = patched
    g.validate()
    tree = loop.tree
    tree.check_consistency()
    assert tree.vertices() == sorted(g.alive_ids())
    leaves = {x: tree.weight_of(x) for x in g.alive_ids()}
    if variant == "uniform":
        assert set(leaves.values()) == {1.0}, "a leaf weighs other than 1.0"
    else:
        current = all(w == node_weight(g, x) for x, w in leaves.items())
        assert current == (variant == "paper"), f"every leaf current: {current}"
    return re_closed(g) / g.original_vertex_count, cpu


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="graph seeds to run, from 100 (default 10)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    seeds = range(FIRST_GRAPH_SEED, FIRST_GRAPH_SEED + args.seeds)
    variants = ("paper", "stale", "uniform")
    print(f"graph seeds {seeds.start}-{seeds.stop - 1}, run seed {RUN_SEED}, "
          "exact mode; RE/n medians, loop CPU medians in s\n")
    print("| graph | rule | paper | stale | uniform | paper IQR | stale − paper "
          "| stale lower | uniform lower | loop CPU paper / stale / uniform | gate |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    failed = False
    for name, make_edges, k in FAMILIES:
        re = {(rule, v): [] for rule in RULES for v in variants}
        cpu = {(rule, v): [] for rule in RULES for v in variants}
        for seed in seeds:
            edges = make_edges(seed)
            for rule in RULES:
                for variant in variants:
                    try:
                        value, seconds = run(edges, k, rule, variant)
                    except AssertionError as err:
                        print(f"check failed: {name}, {rule}, seed {seed}, "
                              f"{variant}: {err}", file=sys.stderr)
                        failed = True
                        value = seconds = float("nan")
                    re[rule, variant].append(value)
                    cpu[rule, variant].append(seconds)
        for rule in RULES:
            median = {v: statistics.median(re[rule, v]) for v in variants}
            paper = re[rule, "paper"]
            q1, q3 = quartiles(paper)
            gap = median["stale"] - median["paper"]
            wins = {v: sum(x < p for x, p in zip(re[rule, v], paper))
                    for v in ("stale", "uniform")}
            times = " / ".join(f"{statistics.median(cpu[rule, v]):.2f}"
                               for v in variants)
            print(f"| {name} | {rule} | {median['paper']:.4f} | {median['stale']:.4f} "
                  f"| {median['uniform']:.4f} | {q3 - q1:.4f} | {gap:+.4f} "
                  f"| {wins['stale']}/{len(seeds)} | {wins['uniform']}/{len(seeds)} "
                  f"| {times} | {'pass' if gap <= q3 - q1 else 'FAIL'} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
