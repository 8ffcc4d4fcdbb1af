import math
import random
import warnings

import pytest

from conftest import gnp_edges, merge_partition, random_partition
from graphsumm import (SummaryGraph, build_report, centrality_estimate,
                       degree_estimate, expected_adjacency, membership_index,
                       re_brute, re_closed, triangle_count_exact,
                       triangle_estimate)


def p3(retain=True):
    return SummaryGraph.from_edge_list([(1, 2), (2, 3)], retain_members=retain)


def p3_twin_summary():
    """P3 grouped as {1,3},{2}."""
    g = p3()
    g.merge(1, 3)
    return g


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

    def test_empty_sample_rejected(self):
        original = p3()
        with pytest.raises(ValueError, match="empty vertex sample"):
            build_report(original, p3_twin_summary(), sample_of_vertices=[])
