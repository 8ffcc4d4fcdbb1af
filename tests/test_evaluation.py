import functools
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from conftest import (constant_degree_edges, gnp_edges, merge_partition,
                      random_partition)
from graphsumm import (SummaryGraph, build_report, centrality_estimate,
                       degree_estimate, evaluation, expected_adjacency,
                       membership_index, re_brute, re_closed,
                       triangle_count_exact, triangle_estimate)


def p3(retain=True):
    return SummaryGraph.from_edge_list([(1, 2), (2, 3)], retain_members=retain)


def p3_twin_summary():
    """P3 grouped as {1,3},{2}."""
    g = p3()
    g.merge(1, 3)
    return g


def random_merged_summary(rng, n, p):
    """G(n, p) with retained members, and a copy reduced by a random
    merge sequence to a random number of supernodes."""
    original = SummaryGraph.from_edge_list(gnp_edges(n, p, rng),
                                           retain_members=True)
    summary = original.copy()
    for _ in range(rng.randrange(original.alive_count)):
        summary.merge(*rng.sample(list(summary.alive_ids()), 2))
    return original, summary


def edgeless():
    """Two vertices that appear only in self-loops, so |E| = 0."""
    return SummaryGraph.from_edge_list([(5, 5), (7, 7)], retain_members=True)


class TestExpectedAdjacency:
    def test_diagonal_zero(self):
        assert expected_adjacency(p3(), 1, 1) == 0.0

    def test_cross_block_density(self):
        assert expected_adjacency(p3_twin_summary(), 1, 2) == pytest.approx(1.0)

    def test_within_block_density(self):
        assert expected_adjacency(p3_twin_summary(), 1, 3) == 0.0

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            expected_adjacency(p3(), 1, 9)

    def test_membership_required(self):
        with pytest.raises(ValueError, match="membership"):
            expected_adjacency(p3(retain=False), 1, 2)


class TestReBrute:
    def test_identity_summary_zero(self):
        g = p3()
        assert re_brute(g, g) == 0.0

    def test_adjacent_merge(self):
        original = p3()
        summary = original.copy()
        summary.merge(1, 2)
        assert re_brute(original, summary) == pytest.approx(2.0)

    def test_single_block(self):
        original = p3()
        summary = original.copy()
        summary.merge(summary.merge(1, 2), 3)
        assert re_brute(original, summary) == pytest.approx(8.0 / 3.0)

    def test_memory_guard(self):
        g = p3()
        with pytest.raises(ValueError, match="oracle"):
            re_brute(g, g, oracle_limit=2)

    def test_vertex_missing_from_summary(self):
        original = SummaryGraph.from_edge_list([(1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match="unknown vertex 4"):
            re_brute(original, p3_twin_summary())


class TestReClosed:
    def test_singleton_partition_zero(self):
        rng = random.Random(1)
        g = SummaryGraph.from_edge_list(gnp_edges(8, 0.4, rng))
        assert re_closed(g) == 0.0

    def test_complete_block_exact(self):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3), (1, 3)])
        g.merge(g.merge(1, 2), 3)
        assert re_closed(g) == pytest.approx(0.0, abs=1e-12)

    def test_path_single_block_matches_oracle(self):
        original = p3()
        summary = original.copy()
        summary.merge(summary.merge(1, 2), 3)
        assert re_closed(summary) == pytest.approx(8.0 / 3.0)
        assert re_closed(summary) == pytest.approx(re_brute(original, summary),
                                                   abs=1e-9)

    def test_matches_oracle_on_random_partitions(self):
        rng = random.Random(99)
        for _ in range(100):
            original = SummaryGraph.from_edge_list(
                gnp_edges(rng.randint(3, 12), 0.3, rng), retain_members=True)
            summary = merge_partition(
                original.copy(),
                random_partition(original.alive_ids(),
                                 rng.randint(1, original.alive_count), rng))
            assert re_closed(summary) == pytest.approx(
                re_brute(original, summary), abs=1e-9)

    def test_l2_squared_identity(self):
        # brute sum of squared residuals equals half the l1 error
        rng = random.Random(123)
        for _ in range(30):
            original = SummaryGraph.from_edge_list(
                gnp_edges(rng.randint(3, 10), 0.4, rng), retain_members=True)
            summary = merge_partition(
                original.copy(),
                random_partition(original.alive_ids(),
                                 rng.randint(1, original.alive_count), rng))
            index = membership_index(summary)
            vertices = sorted(original.nodes)
            sq = 0.0
            for u in vertices:
                for v in vertices:
                    if u == v:
                        continue
                    abar = expected_adjacency(summary, u, v, index)
                    a = 1.0 if v in original.adj[u] else 0.0
                    sq += (abar - a) ** 2
            assert sq == pytest.approx(re_closed(summary) / 2.0, abs=1e-9)


class TestDegreeAndCentrality:
    def test_identity_summary_exact(self):
        rng = random.Random(3)
        g = SummaryGraph.from_edge_list(gnp_edges(10, 0.4, rng),
                                        retain_members=True)
        index = membership_index(g)
        for v in g.nodes:
            assert degree_estimate(g, v, index) == pytest.approx(len(g.adj[v]))

    def test_path_center(self):
        summary = p3_twin_summary()
        assert degree_estimate(summary, 2) == pytest.approx(2.0)
        assert centrality_estimate(summary, 2) == pytest.approx(0.5)

    def test_total_degree_mass_preserved(self):
        rng = random.Random(8)
        original = SummaryGraph.from_edge_list(gnp_edges(12, 0.3, rng),
                                               retain_members=True)
        summary = merge_partition(
            original.copy(), random_partition(original.alive_ids(), 4, rng))
        index = membership_index(summary)
        total = sum(degree_estimate(summary, v, index) for v in original.nodes)
        assert total == pytest.approx(2.0 * original.original_edge_count, rel=1e-9)
        centrality = sum(centrality_estimate(summary, v, index)
                         for v in original.nodes)
        assert centrality == pytest.approx(1.0, rel=1e-9)

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            degree_estimate(p3_twin_summary(), 42)

    def test_edgeless_graph_centrality_zero(self):
        summary = edgeless()
        summary.merge(5, 7)
        assert centrality_estimate(summary, 5) == 0.0
        assert centrality_estimate(summary, 7) == 0.0


class TestTriangles:
    def test_exact_counter(self):
        assert triangle_count_exact(
            SummaryGraph.from_edge_list([(1, 2), (2, 3), (1, 3)])) == 1
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        assert triangle_count_exact(SummaryGraph.from_edge_list(k4)) == 4
        assert triangle_count_exact(p3()) == 0

    def test_exact_counter_matches_triple_oracle(self):
        rng = random.Random(2024)
        graphs = [SummaryGraph.from_edge_list(
                      gnp_edges(rng.randint(3, 30), rng.uniform(0.05, 0.6), rng))
                  for _ in range(24)]
        graphs.append(SummaryGraph.from_edge_list(
            [(a, b) for a in range(9) for b in range(a + 1, 9)]))
        for g in graphs:
            expected = sum(1 for u, v, w in itertools.combinations(sorted(g.adj), 3)
                           if v in g.adj[u] and w in g.adj[u] and w in g.adj[v])
            assert triangle_count_exact(g) == expected
        assert triangle_count_exact(graphs[-1]) == math.comb(9, 3)
        assert triangle_count_exact(edgeless()) == 0

    def test_estimate_matches_triple_oracle(self):
        # the estimate is the expected-adjacency product summed over all
        # vertex triples, whatever mix of one, two and three blocks they span
        rng = random.Random(77)
        for _ in range(40):
            original, summary = random_merged_summary(
                rng, rng.randint(3, 24), rng.uniform(0.1, 0.7))
            index = membership_index(summary)
            expected = math.fsum(
                expected_adjacency(summary, u, v, index)
                * expected_adjacency(summary, v, w, index)
                * expected_adjacency(summary, u, w, index)
                for u, v, w in itertools.combinations(sorted(original.nodes), 3))
            assert math.isclose(triangle_estimate(summary), expected,
                                rel_tol=1e-12)

    def test_complete_blocks_exact(self):
        g = SummaryGraph.from_edge_list([(1, 2), (2, 3), (1, 3)])
        g.merge(g.merge(1, 2), 3)
        assert triangle_estimate(g) == pytest.approx(1.0)
        k4 = SummaryGraph.from_edge_list(
            [(a, b) for a in range(4) for b in range(a + 1, 4)])
        k4.merge(k4.merge(k4.merge(0, 1), 2), 3)
        assert triangle_estimate(k4) == pytest.approx(4.0)

    def test_path_twin_summary_zero(self):
        assert triangle_estimate(p3_twin_summary()) == pytest.approx(0.0)

    def test_homogeneous_summary_is_exact(self):
        # blocks that are internally complete or empty, and complete or
        # empty across: K4 split into two halves is fully homogeneous
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        original = SummaryGraph.from_edge_list(edges, retain_members=True)
        summary = merge_partition(original.copy(), [[0, 1], [2, 3]])
        assert triangle_estimate(summary) == pytest.approx(
            triangle_count_exact(original))
        # a star grouped as {leaves}, {center}: empty block + complete cross
        star = SummaryGraph.from_edge_list([(0, 1), (0, 2), (0, 3)],
                                           retain_members=True)
        grouped = merge_partition(star.copy(), [[1, 2, 3], [0]])
        assert triangle_estimate(grouped) == pytest.approx(
            triangle_count_exact(star))


class TestBuildReport:
    def test_identity_summary_all_zero(self):
        rng = random.Random(5)
        g = SummaryGraph.from_edge_list(gnp_edges(10, 0.4, rng),
                                        retain_members=True)
        report = build_report(g, g)
        assert report.re_l1 == 0.0
        assert report.re_l1_normalized == 0.0
        assert report.re_l2_squared == 0.0
        assert report.degree_err_avg == 0.0
        assert report.centrality_err_avg == 0.0
        assert report.triangle_relative_err == 0.0

    def test_path_twin_summary(self):
        original = p3()
        report = build_report(original, p3_twin_summary(), elapsed_seconds=1.5)
        assert report.re_l1 == 0.0
        assert report.degree_err_avg == 0.0
        assert report.triangle_relative_err == 0.0
        assert report.elapsed_seconds == 1.5

    def test_l2_column_is_half_l1(self):
        rng = random.Random(21)
        original = SummaryGraph.from_edge_list(gnp_edges(12, 0.3, rng),
                                               retain_members=True)
        summary = merge_partition(
            original.copy(), random_partition(original.alive_ids(), 3, rng))
        report = build_report(original, summary)
        assert report.re_l2_squared == pytest.approx(report.re_l1 / 2.0)
        assert report.re_l1_normalized == pytest.approx(report.re_l1 / 12.0)

    def test_vertex_sample_restricts_query_errors(self):
        rng = random.Random(2)
        original = SummaryGraph.from_edge_list(gnp_edges(10, 0.5, rng),
                                               retain_members=True)
        summary = merge_partition(
            original.copy(), random_partition(original.alive_ids(), 2, rng))
        full = build_report(original, summary)
        sampled = build_report(original, summary,
                               sample_of_vertices=list(original.nodes)[:4])
        assert sampled.re_l1 == full.re_l1
        assert math.isfinite(sampled.degree_err_avg)

    def test_blocks_from_the_replay_match_the_index(self):
        # without a sample the report reads blocks from the replayed
        # arrays; a sample of every vertex goes through membership_index
        rng = random.Random(14)
        for _ in range(20):
            original, summary = random_merged_summary(
                rng, rng.randint(2, 30), rng.uniform(0.1, 0.6))
            sets = {a: {a} for a in original.nodes}
            for a, b, z in zip(*[iter(summary.merge_log)] * 3):
                sets[z] = sets.pop(a) | sets.pop(b)
            assert membership_index(summary) == {
                v: block for block, members in sets.items() for v in members}
            assert build_report(original, summary) == build_report(
                original, summary, sample_of_vertices=list(original.nodes))

    def test_vertex_count_mismatch(self):
        original = SummaryGraph.from_edge_list([(1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match="summary holds 3 vertices, the "
                                             "original graph 4"):
            build_report(original, p3_twin_summary(), oracle_limit=0)

    def test_vertex_count_mismatch_at_default_oracle_limit(self):
        # the count check runs before the brute-force oracle, which would
        # meet vertex 4 without a block
        original = SummaryGraph.from_edge_list([(1, 2), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match="summary holds 3 vertices, the "
                                             "original graph 4"):
            build_report(original, p3_twin_summary())
        with pytest.raises(ValueError, match="unknown vertex 4"):
            build_report(original, p3_twin_summary(), sample_of_vertices=[1, 2])

    def test_unknown_sample_vertex(self):
        original = p3()
        with pytest.raises(ValueError, match="unknown vertex 42"):
            build_report(original, p3_twin_summary(), sample_of_vertices=[1, 42])

    def test_edgeless_graph(self):
        original = edgeless()
        summary = original.copy()
        summary.merge(5, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = build_report(original, summary)
        assert report.re_l1 == 0.0
        assert report.degree_err_avg == report.degree_err_std == 0.0
        assert report.centrality_err_avg == report.centrality_err_std == 0.0
        assert report.triangle_relative_err == 0.0

    def test_brute_force_disagreement_raises(self, monkeypatch):
        rng = random.Random(6)
        original, summary = random_merged_summary(rng, 12, 0.4)
        monkeypatch.setattr(evaluation, "re_brute",
                            lambda *args: re_closed(summary) + 1.0)
        with pytest.raises(AssertionError, match="disagrees with brute force"):
            build_report(original, summary)

    def test_brute_force_disagreement_raises_under_optimize(self):
        # python -O strips assert statements; the cross-check must survive it
        script = (
            "from graphsumm import SummaryGraph, evaluation\n"
            "g = SummaryGraph.from_edge_list([(1, 2), (2, 3)], retain_members=True)\n"
            "evaluation.re_brute = lambda *args: 5.0\n"
            "try:\n"
            "    evaluation.build_report(g, g)\n"
            "except AssertionError as err:\n"
            "    print(err)\n")
        run = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": str(
                                 Path(evaluation.__file__).resolve().parents[1])})
        assert run.returncode == 0, run.stderr
        assert "disagrees with brute force 5.0" in run.stdout

    def test_empty_sample_rejected(self):
        original = p3()
        with pytest.raises(ValueError, match="empty vertex sample"):
            build_report(original, p3_twin_summary(), sample_of_vertices=[])


def self_loop_vertex_summary(rng):
    """G(15, 0.3) plus vertex 99, which appears only in a self-loop, and a
    random merge of it."""
    original = SummaryGraph.from_edge_list(gnp_edges(15, 0.3, rng) + [(99, 99)],
                                           retain_members=True)
    summary = original.copy()
    for _ in range(rng.randrange(1, original.alive_count)):
        summary.merge(*rng.sample(list(summary.alive_ids()), 2))
    return original, summary


def edgeless_summary(rng):
    original = edgeless()
    summary = original.copy()
    summary.merge(5, 7)
    return original, summary


class TestInputGraph:
    """The report reads the original graph only through adj and its
    counts, so the tuple form gives exactly what the graph itself gives;
    the copy form is what the CLI used to hand the report."""

    CASES = ([functools.partial(random_merged_summary, n=n, p=p)
              for n, p in ((8, 0.5), (20, 0.2), (30, 0.4), (60, 0.1))]
             + [self_loop_vertex_summary, edgeless_summary])
    VIEWS = {"copy": SummaryGraph.copy,
             "tuples": lambda g: evaluation.InputGraph(g)}

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_same_values_as_the_graph(self, case, seed, view):
        original, summary = self.CASES[case](random.Random(seed))
        other = self.VIEWS[view](original)
        assert list(other.adj) == list(original.nodes)
        assert re_brute(other, summary) == re_brute(original, summary)
        assert triangle_count_exact(other) == triangle_count_exact(original)
        # the default limit takes the brute-force cross-check, 0 skips it
        for limit in (1024, 0):
            assert build_report(other, summary, oracle_limit=limit) \
                == build_report(original, summary, oracle_limit=limit)
        sample = list(original.nodes)[::2]
        assert build_report(other, summary, sample_of_vertices=sample) \
            == build_report(original, summary, sample_of_vertices=sample)

    def test_rows_are_neighbour_tuples(self):
        g = SummaryGraph.from_edge_list([(3, 1), (1, 2), (2, 3), (9, 9)])
        tuples = evaluation.InputGraph(g)
        assert tuples.adj == {3: (1, 2), 1: (3, 2), 2: (1, 3), 9: ()}
        assert (tuples.original_vertex_count, tuples.original_edge_count) \
            == (4, 3)

    def test_under_half_the_memory_of_a_copy(self):
        g = SummaryGraph.from_edge_list(
            constant_degree_edges(2000, 10, random.Random(3)),
            retain_members=True)
        allocated = {}
        for name, build in (("copy", g.copy),
                            ("tuples", lambda: evaluation.InputGraph(g))):
            tracemalloc.start()
            try:
                kept = build()
                allocated[name] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del kept
        assert allocated["tuples"] < allocated["copy"] / 2
