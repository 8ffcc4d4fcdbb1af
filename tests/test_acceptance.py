"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The benchmark-scale
criteria need public SNAP datasets; the tests locate them under tests/data/
(or $GRAPHSUMM_DATA_DIR, or try to download once) and skip with an
explanation when the data cannot be obtained.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy import stats

from conftest import (constant_degree_edges, exact_dot, gnp_edges,
                      merge_partition, random_partition, require_dataset,
                      score_oracle, sketch_of, sparse_int_vector)
from graphsumm import (SamplingTree, SummarizerConfig, SummaryGraph,
                       build_report, make_hash_seeds, re_brute, re_closed,
                       score_exact, summarize)
from graphsumm.cli import main, parse_edge_list


def test_criterion_1_closed_form_matches_brute_force_oracle():
    rng = random.Random(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(2, 12)
        original = SummaryGraph.from_edge_list(gnp_edges(n, 0.3, rng),
                                               retain_members=True)
        summary = merge_partition(
            original.copy(),
            random_partition(original.alive_ids(),
                             rng.randint(1, original.alive_count), rng))
        gap = abs(re_closed(summary) - re_brute(original, summary))
        worst = max(worst, gap)
        assert gap <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 closed-form vs brute-force RE: PASS "
          f"(1000 graphs, max gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_score_equals_re_delta_exhaustively():
    rng = random.Random(2002)
    started = time.perf_counter()
    pairs_checked = 0
    worst = 0.0
    for trial in range(200):
        g = SummaryGraph.from_edge_list(gnp_edges(rng.randint(2, 10), 0.35, rng))
        # half the instances get pre-merged so non-singleton supernodes and
        # multi-edges are exercised too
        if trial % 2:
            for _ in range(rng.randrange(max(1, g.alive_count - 1))):
                a, b = rng.sample(list(g.alive_ids()), 2)
                g.merge(a, b)
        alive = list(g.alive_ids())
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                gap = abs(score_exact(g, a, b) - score_oracle(g, a, b))
                worst = max(worst, gap)
                assert gap <= 1e-9
                pairs_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 pair score vs RE delta: PASS "
          f"({pairs_checked} pairs, max gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_sketch_inner_product_guarantees():
    rng = random.Random(3003)
    seed_rng = random.Random(314159)
    started = time.perf_counter()
    trials = 10_000
    width = 50
    over_bound = 0
    for _ in range(trials):
        # the failure probability is over the hash draw, so draw fresh
        # seeds per trial; the empirical fraction then estimates it directly
        seeds = make_hash_seeds(2, seed_rng.getrandbits(63))
        va = sparse_int_vector(rng, 500, 3, 8)
        vb = sparse_int_vector(rng, 500, 3, 8)
        estimate = sketch_of(va, width, 2, seeds).inner_product_estimate(
            sketch_of(vb, width, 2, seeds))
        exact = exact_dot(va, vb)
        assert estimate >= exact  # integer-valued vectors: exact in float64
        if estimate > exact + sum(va.values()) * sum(vb.values()) / width:
            over_bound += 1
    fraction = over_bound / trials
    limit = math.exp(-2) + 0.04
    assert fraction <= limit
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 sketch overestimate + error bound: PASS "
          f"(never below exact; bound exceeded {fraction:.3f} <= {limit:.3f}, "
          f"{elapsed:.1f}s)")


def test_criterion_4_sampling_tree_distribution_and_cost():
    rng = random.Random(4004)
    started = time.perf_counter()
    draws_per_vector = 100_000
    worst_p = 1.0
    for trial in range(20):
        size = rng.randint(2, 64)
        tree = SamplingTree.build(
            [(v, rng.uniform(0.05, 1.0)) for v in range(size)])
        visit_bound = 2 * math.ceil(math.log2(size))
        if trial % 2:
            # interleave updates, deletes and inserts before measuring
            next_vertex = size
            for _ in range(rng.randint(10, 80)):
                choice = rng.random()
                present = sorted(tree.vertices())
                if choice < 0.6:
                    tree.update_weight(rng.choice(present),
                                       rng.uniform(0.05, 1.0))
                elif choice < 0.8 and len(present) > 2:
                    tree.delete(rng.choice(present))
                elif len(present) < size:
                    tree.insert(next_vertex, rng.uniform(0.05, 1.0))
                    next_vertex += 1
                assert tree.last_op_visits <= visit_bound
        weights = {v: tree.weight_of(v) for v in tree.vertices()}
        total = sum(weights.values())
        counts = {v: 0 for v in weights}
        for _ in range(draws_per_vector):
            counts[tree.get_leaf(rng.random() * tree.total_weight)] += 1
            assert tree.last_op_visits <= visit_bound
        ordered = sorted(weights)
        expected = np.array([weights[v] / total * draws_per_vector
                             for v in ordered])
        observed = np.array([counts[v] for v in ordered], dtype=float)
        p_value = stats.chisquare(observed, expected).pvalue
        worst_p = min(worst_p, p_value)
        assert p_value > 0.001
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 sampling tree chi-square + cost: PASS "
          f"(20 vectors x {draws_per_vector} draws, min p={worst_p:.4f}, "
          f"{elapsed:.1f}s)")


def test_criterion_5_small_instance_optima():
    star_hits = 0
    path_hits = 0
    for seed in range(100):
        star = SummaryGraph.from_edge_list([(0, 1), (0, 2), (0, 3)])
        out = summarize(star, SummarizerConfig(target_k=2,
                                               sample_rule="5logn", seed=seed))
        star_hits += re_closed(out) < 1e-9
        path = SummaryGraph.from_edge_list([(1, 2), (2, 3)])
        out = summarize(path, SummarizerConfig(target_k=2,
                                               sample_rule="5logn", seed=seed))
        path_hits += re_closed(out) < 1e-9
    assert star_hits >= 90
    assert path_hits >= 90
    print(f"\nACCEPTANCE 5 small-instance optima: PASS "
          f"(star {star_hits}/100, path {path_hits}/100 seeds at RE=0)")


def _load_snap_graph(path):
    with open(path) as stream:
        edges, _ = parse_edge_list(stream)
    return edges


def _facebook_normalized_re(edges, seeds, score_mode, width):
    values = []
    for seed in seeds:
        g = SummaryGraph.from_edge_list(edges)
        cfg = SummarizerConfig(target_k=1000, sample_rule="logn",
                               score_mode=score_mode, sketch_width=width,
                               sketch_depth=2, seed=seed)
        started = time.perf_counter()
        summarize(g, cfg)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"run took {elapsed:.1f}s, budget is 60s"
        values.append(re_closed(g) / g.original_vertex_count)
    return sum(values) / len(values)


def test_criterion_6_facebook_scale_reproduction():
    path = require_dataset("facebook")
    edges = _load_snap_graph(path)
    exact_mean = _facebook_normalized_re(edges, range(1, 6), "exact", 100)
    assert 38.98 * 0.8 <= exact_mean <= 38.98 * 1.2
    sketch_mean = _facebook_normalized_re(edges, range(1, 6), "sketch", 100)
    assert 57.27 * 0.8 <= sketch_mean <= 57.27 * 1.2
    print(f"\nACCEPTANCE 6 ego-Facebook k=1000: PASS "
          f"(exact mean {exact_mean:.2f} vs 38.98, "
          f"sketch mean {sketch_mean:.2f} vs 57.27)")


def test_criterion_6b_enron_smoke():
    path = require_dataset("enron")
    edges = _load_snap_graph(path)
    g = SummaryGraph.from_edge_list(edges)
    cfg = SummarizerConfig(target_k=10_000, sample_rule="logn", seed=1)
    summarize(g, cfg)
    normalized = re_closed(g) / g.original_vertex_count
    assert 4.15 * 0.75 <= normalized <= 5.82 * 1.25
    print(f"\nACCEPTANCE 6b email-Enron k=10000 smoke: PASS "
          f"(normalized RE {normalized:.2f} in [3.11, 7.28])")


def test_criterion_7_facebook_query_accuracy():
    path = require_dataset("facebook")
    edges = _load_snap_graph(path)
    g = SummaryGraph.from_edge_list(edges, retain_members=True)
    original = g.copy()
    cfg = SummarizerConfig(target_k=1500, sample_rule="logn", seed=3)
    summarize(g, cfg)
    report = build_report(original, g, oracle_limit=0)
    assert report.degree_err_avg <= 10.0
    assert abs(report.triangle_relative_err) <= 0.3
    print(f"\nACCEPTANCE 7 ego-Facebook k=1500 queries: PASS "
          f"(degree err {report.degree_err_avg:.2f} <= 10, "
          f"triangle err {report.triangle_relative_err:+.3f} within 0.3)")


@pytest.mark.slow
def test_criterion_8_near_linearithmic_scaling():
    sizes = [2 ** 14, 2 ** 15, 2 ** 16, 2 ** 17]
    times = []
    started = time.perf_counter()
    for n in sizes:
        rng = random.Random(n)
        edges = constant_degree_edges(n, 6, rng)
        cfg = SummarizerConfig(target_k=n // 2, score_mode="sketch",
                               sketch_width=50, sketch_depth=2, seed=1)
        # wall-clock contention only ever inflates a sample, so take the
        # best of two runs per size
        best = math.inf
        for _ in range(2):
            g = SummaryGraph.from_edge_list(edges)
            t0 = time.perf_counter()
            summarize(g, cfg)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    total = time.perf_counter() - started
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    detail = ", ".join(f"2^{int(math.log2(n))}:{t:.1f}s"
                       for n, t in zip(sizes, times))
    assert slope <= 1.35, f"slope {slope:.3f} > 1.35; {detail}"
    assert total < 600.0, f"total {total:.0f}s >= 600s; {detail}"
    print(f"\nACCEPTANCE 8 scaling: PASS (slope {slope:.3f} <= 1.35; {detail}; "
          f"total {total:.0f}s)")


def test_criterion_9_deterministic_summary_files(tmp_path):
    rng = random.Random(9009)
    graph_file = tmp_path / "graph.txt"
    lines = [f"{u} {v}" for u, v in gnp_edges(60, 0.1, rng)]
    graph_file.write_text("\n".join(lines) + "\n")
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.summary"
        code = main(["--input", str(graph_file), "--k", "12", "--seed", "77",
                     "--score", "sketch", "--width", "32",
                     "--retain-members", "--summary-out", str(out),
                     "--report", str(tmp_path / f"{name}.report")])
        assert code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    print("\nACCEPTANCE 9 determinism: PASS (byte-identical summary files)")
