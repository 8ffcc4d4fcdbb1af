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

import numpy as np
import pytest

from conftest import (constant_degree_edges, forward_triangles, gnp_edges,
                      merge_partition, preferential_attachment_edges,
                      random_partition, re_closed_loop, re_walk)
from graphsumm import (Summarizer, SummarizerConfig, SummaryGraph,
                       build_report, centrality_estimate, degree_estimate,
                       evaluation, expected_adjacency, membership_index,
                       re_brute, re_closed, summarize,
                       triangle_count_exact, triangle_estimate)
from graphsumm.cli import read_summary, write_summary


def neighbour_labels(original):
    """Each input vertex's neighbour labels, keyed by label, read from the
    CSR arrays of the graph's InputGraph."""
    csr = evaluation.InputGraph(original)
    labels = csr.labels.tolist()
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    return {label: {labels[r] for r in indices[indptr[row]:indptr[row + 1]]}
            for row, label in enumerate(labels)}


def p3():
    return SummaryGraph.from_edge_list([(0, 1), (1, 2)])


def p3_twin_summary():
    """P3 grouped as {0,2},{1}."""
    g = p3()
    g.merge(0, 2)
    return g


def random_merged_summary(rng, n, p):
    """G(n, p), and a copy reduced by a random
    merge sequence to a random number of supernodes."""
    original = SummaryGraph.from_edge_list(gnp_edges(n, p, rng))
    summary = original.copy()
    for _ in range(rng.randrange(original.alive_count)):
        summary.merge(*rng.sample(list(summary.alive_ids()), 2))
    return original, summary


def edgeless():
    """Two vertices, labelled 5 and 7 (ids 0 and 1), that appear only in
    self-loops, so |E| = 0."""
    return SummaryGraph.from_edge_list([(5, 5), (7, 7)])


class TestExpectedAdjacency:
    def test_diagonal_zero(self):
        assert expected_adjacency(p3(), 0, 0) == 0.0

    def test_cross_block_density(self):
        assert expected_adjacency(p3_twin_summary(), 0, 1) == pytest.approx(1.0)

    def test_within_block_density(self):
        assert expected_adjacency(p3_twin_summary(), 0, 2) == 0.0

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            expected_adjacency(p3(), 0, 9)

    def test_membership_required(self, tmp_path):
        # only a summary read back without member lists lacks membership
        path = tmp_path / "plain.summary"
        write_summary(p3(), path, members=False)
        with pytest.raises(ValueError, match="membership"):
            expected_adjacency(read_summary(path), 0, 1)


class TestReBrute:
    def test_identity_summary_zero(self):
        g = p3()
        assert re_brute(g, g) == 0.0

    def test_adjacent_merge(self):
        original = p3()
        summary = original.copy()
        summary.merge(0, 1)
        assert re_brute(original, summary) == pytest.approx(2.0)

    def test_single_block(self):
        original = p3()
        summary = original.copy()
        summary.merge(summary.merge(0, 1), 2)
        assert re_brute(original, summary) == pytest.approx(8.0 / 3.0)

    def test_memory_guard(self):
        g = p3()
        with pytest.raises(ValueError, match="oracle"):
            re_brute(g, g, oracle_limit=2)

    def test_vertex_missing_from_summary(self):
        original = SummaryGraph.from_edge_list([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="unknown vertex 3"):
            re_brute(original, p3_twin_summary())


class TestReClosed:
    def test_singleton_partition_zero(self):
        rng = random.Random(1)
        g = SummaryGraph.from_edge_list(gnp_edges(8, 0.4, rng))
        assert re_closed(g) == 0.0

    def test_complete_block_exact(self):
        g = SummaryGraph.from_edge_list([(0, 1), (1, 2), (0, 2)])
        g.merge(g.merge(0, 1), 2)
        assert re_closed(g) == pytest.approx(0.0, abs=1e-12)

    def test_path_single_block_matches_oracle(self):
        original = p3()
        summary = original.copy()
        summary.merge(summary.merge(0, 1), 2)
        assert re_closed(summary) == pytest.approx(8.0 / 3.0)
        assert re_closed(summary) == pytest.approx(re_brute(original, summary),
                                                   abs=1e-9)

    def test_matches_oracle_on_random_partitions(self):
        rng = random.Random(99)
        for _ in range(100):
            original = SummaryGraph.from_edge_list(
                gnp_edges(rng.randint(3, 12), 0.3, rng))
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
                gnp_edges(rng.randint(3, 10), 0.4, rng))
            summary = merge_partition(
                original.copy(),
                random_partition(original.alive_ids(),
                                 rng.randint(1, original.alive_count), rng))
            index = membership_index(summary)
            rows = neighbour_labels(original)
            vertices = sorted(rows)
            sq = 0.0
            for u in vertices:
                for v in vertices:
                    if u == v:
                        continue
                    abar = expected_adjacency(summary, u, v, index)
                    a = 1.0 if v in rows[u] else 0.0
                    sq += (abar - a) ** 2
            assert sq == pytest.approx(re_closed(summary) / 2.0, abs=1e-9)


class TestDegreeAndCentrality:
    def test_identity_summary_exact(self):
        rng = random.Random(3)
        g = SummaryGraph.from_edge_list(gnp_edges(10, 0.4, rng))
        index = membership_index(g)
        for v in g.nodes:
            assert degree_estimate(g, g.labels[v], index) \
                == pytest.approx(len(g.adj[v]))

    def test_path_center(self):
        summary = p3_twin_summary()
        assert degree_estimate(summary, 1) == pytest.approx(2.0)
        assert centrality_estimate(summary, 1) == pytest.approx(0.5)

    def test_total_degree_mass_preserved(self):
        rng = random.Random(8)
        original = SummaryGraph.from_edge_list(gnp_edges(12, 0.3, rng))
        summary = merge_partition(
            original.copy(), random_partition(original.alive_ids(), 4, rng))
        index = membership_index(summary)
        total = sum(degree_estimate(summary, v, index) for v in original.labels)
        assert total == pytest.approx(2.0 * original.original_edge_count, rel=1e-9)
        centrality = sum(centrality_estimate(summary, v, index)
                         for v in original.labels)
        assert centrality == pytest.approx(1.0, rel=1e-9)

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            degree_estimate(p3_twin_summary(), 42)

    def test_edgeless_graph_centrality_zero(self):
        summary = edgeless()
        summary.merge(0, 1)
        assert centrality_estimate(summary, 5) == 0.0
        assert centrality_estimate(summary, 7) == 0.0


def brute_triangles(g):
    """Triangles of a graph's adjacency maps, by testing every id triple."""
    adj = g.adj
    return [(u, v, w) for u, v, w in itertools.combinations(sorted(adj), 3)
            if v in adj[u] and w in adj[u] and w in adj[v]]


def hub_graph():
    """Vertex 0 joined to 1..20, which form a clique and have a pendant
    vertex each: 0 has the lowest degree of its neighbourhood, so its
    C(20, 2) wedges all start at it, 19 of them at its first edge."""
    edges = [(0, v) for v in range(1, 21)]
    edges += [(u, v) for u in range(1, 21) for v in range(u + 1, 21)]
    edges += [(v, 100 + v) for v in range(1, 21)]
    return SummaryGraph.from_edge_list(edges)


KERNEL_SHAPES = {
    "star": lambda: SummaryGraph.from_edge_list([(0, v) for v in range(1, 13)]),
    "clique": lambda: SummaryGraph.from_edge_list(
        [(a, b) for a in range(9) for b in range(a + 1, 9)]),
    "isolated": lambda: SummaryGraph.from_edge_list(
        [(a, b) for a in range(4) for b in range(a + 1, 4)]
        + [(5, 5), (6, 6), (7, 8)]),
    "edgeless": edgeless,
    "hub": hub_graph,
    "gnp": lambda: SummaryGraph.from_edge_list(
        gnp_edges(40, 0.3, random.Random(41))),
}


class TestTriangleKernel:
    @pytest.mark.parametrize("chunk", [1, 7, evaluation._WEDGE_CHUNK])
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_matches_triple_oracle(self, monkeypatch, shape, chunk):
        # every triangle once, and each edge it yields joins the two
        # corners it is opposite; a small chunk splits the hub's wedges,
        # and chunk 1 takes one forward edge per pass
        monkeypatch.setattr(evaluation, "_WEDGE_CHUNK", chunk)
        g = KERNEL_SHAPES[shape]()
        csr = evaluation.InputGraph(g)
        found = []
        for corners, opposite in evaluation._triangles(csr.indptr, csr.indices):
            for triangle, edges in zip(zip(*corners), zip(*opposite)):
                found.append(tuple(sorted(triangle)))
                for corner, edge in zip(triangle, edges):
                    row = np.searchsorted(csr.indptr, edge, side="right") - 1
                    assert {int(row), int(csr.indices[edge])} \
                        == set(triangle) - {corner}
        expected = brute_triangles(g)
        assert sorted(found) == expected
        assert triangle_count_exact(g) == len(expected)

    def test_estimate_bits_do_not_depend_on_the_chunk(self, monkeypatch):
        rng = random.Random(42)
        summaries = [random_merged_summary(rng, 30, 0.4)[1] for _ in range(5)]
        hub = hub_graph()
        # ids 21..40 are the pendant vertices 101..120
        merge_partition(hub, [[v, 20 + v] for v in range(1, 21, 2)])
        summaries.append(hub)
        default = [triangle_estimate(summary).hex() for summary in summaries]
        monkeypatch.setattr(evaluation, "_WEDGE_CHUNK", 1)
        assert [triangle_estimate(summary).hex()
                for summary in summaries] == default

    def test_estimate_multiplies_in_id_order(self, tmp_path):
        # one three-block triangle and no internal edges, so the estimate
        # is that one term; block 3 raises block 0's degree, so the kernel
        # meets the corners in the order 1, 2, 0, and that product order
        # rounds differently
        path = tmp_path / "triangle.summary"
        path.write_text("SUMMARY v1 20 40 4\nN 0 5 0\nN 1 5 0\nN 2 9 0\n"
                        "N 3 1 0\nE 0 1 10\nE 1 2 2\nE 0 2 27\nE 0 3 1\n")
        term = 5 * 5 * 9 * (10 / 25) * (2 / 45) * (27 / 45)
        assert term != 5 * 5 * 9 * (2 / 45) * (27 / 45) * (10 / 25)
        assert triangle_estimate(read_summary(path)).hex() == term.hex()

    def test_memory_bounded_by_the_chunk(self):
        # every vertex of a 300-clique has the same degree, so row r opens
        # C(299 - r, 2) wedges: C(300, 3) = 4,455,100 in all, all closed
        csr = evaluation.InputGraph(SummaryGraph.from_edge_list(
            [(a, b) for a in range(300) for b in range(a + 1, 300)]))
        tracemalloc.start()
        try:
            assert triangle_count_exact(csr) == math.comb(300, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one int64 array over every wedge alone would take 35.6 MB
        assert peak < 8 * math.comb(300, 3) / 4

    def test_empty_arrays_warn_nothing_under_dev_mode(self):
        script = (
            "import numpy as np\n"
            "from graphsumm import SummaryGraph, evaluation\n"
            "g = SummaryGraph.from_edge_list([(5, 5), (7, 7)])\n"
            "assert evaluation.triangle_count_exact(g) == 0\n"
            "assert evaluation.triangle_estimate(g) == 0.0\n"
            "g.merge(0, 1)\n"
            "assert evaluation.triangle_estimate(g) == 0.0\n"
            "p3 = SummaryGraph.from_edge_list([(1, 2), (2, 3)])\n"
            "assert evaluation.triangle_count_exact(p3) == 0\n"
            "none = evaluation._triangles(np.zeros(1, np.int64),\n"
            "                             np.zeros(0, np.int32))\n"
            "assert list(none) == []\n")
        run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c",
                              script], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": str(
                                 Path(evaluation.__file__).resolve().parents[1])})
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""


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
                for u, v, w in itertools.combinations(sorted(original.labels), 3))
            assert math.isclose(triangle_estimate(summary), expected,
                                rel_tol=1e-12)

    def test_complete_blocks_exact(self):
        g = SummaryGraph.from_edge_list([(0, 1), (1, 2), (0, 2)])
        g.merge(g.merge(0, 1), 2)
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
        original = SummaryGraph.from_edge_list(edges)
        summary = merge_partition(original.copy(), [[0, 1], [2, 3]])
        assert triangle_estimate(summary) == pytest.approx(
            triangle_count_exact(original))
        # a star grouped as {leaves}, {center}: empty block + complete cross
        star = SummaryGraph.from_edge_list([(0, 1), (0, 2), (0, 3)])
        grouped = merge_partition(star.copy(), [[1, 2, 3], [0]])
        assert triangle_estimate(grouped) == pytest.approx(
            triangle_count_exact(star))


class TestTriangleGolden:
    """Both triangle queries on seeded preferential-attachment graphs and
    summaries of them, pinned to the values the forward-set enumeration
    gave: the exact count, and the bits of the estimate on the identity
    graph and on the summary."""

    GOLDEN = {
        (600, 4, 150, 7): (423, "0x1.a700000000000p+8", "0x1.e7b800c5f12ecp+8"),
        (2000, 5, 1500, 11): (1199, "0x1.2bc0000000000p+10",
                              "0x1.325caa732fbb8p+10"),
    }

    @pytest.mark.parametrize("shape", GOLDEN)
    def test_pinned_values(self, shape):
        n, m, k, seed = shape
        exact, identity, summarized = self.GOLDEN[shape]
        g = SummaryGraph.from_edge_list(
            preferential_attachment_edges(n, m, random.Random(seed)))
        assert triangle_count_exact(g) == exact
        assert triangle_estimate(g).hex() == identity
        summary = summarize(g.copy(), SummarizerConfig(target_k=k, seed=seed))
        assert triangle_estimate(summary).hex() == summarized


class TestBuildReport:
    def test_identity_summary_all_zero(self):
        rng = random.Random(5)
        g = SummaryGraph.from_edge_list(gnp_edges(10, 0.4, rng))
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
        original = SummaryGraph.from_edge_list(gnp_edges(12, 0.3, rng))
        summary = merge_partition(
            original.copy(), random_partition(original.alive_ids(), 3, rng))
        report = build_report(original, summary)
        assert report.re_l2_squared == pytest.approx(report.re_l1 / 2.0)
        assert report.re_l1_normalized == pytest.approx(report.re_l1 / 12.0)

    def test_vertex_sample_restricts_query_errors(self):
        rng = random.Random(2)
        original = SummaryGraph.from_edge_list(gnp_edges(10, 0.5, rng))
        summary = merge_partition(
            original.copy(), random_partition(original.alive_ids(), 2, rng))
        full = build_report(original, summary)
        sampled = build_report(original, summary,
                               sample_of_vertices=list(original.labels)[:4])
        assert sampled.re_l1 == full.re_l1
        assert math.isfinite(sampled.degree_err_avg)

    def test_blocks_from_the_replay_match_the_index(self):
        # without a sample the report reads blocks from the replayed
        # arrays; a sample of every vertex goes through membership_index
        rng = random.Random(14)
        for _ in range(20):
            original, summary = random_merged_summary(
                rng, rng.randint(2, 30), rng.uniform(0.1, 0.6))
            sets = {a: {original.labels[a]} for a in original.nodes}
            for a, b in zip(*[iter(summary.merge_log)] * 2):
                sets[a] |= sets.pop(b)
            assert membership_index(summary) == {
                v: block for block, members in sets.items() for v in members}
            assert build_report(original, summary) == build_report(
                original, summary, sample_of_vertices=list(original.labels))

    def test_vertex_count_mismatch(self):
        original = SummaryGraph.from_edge_list([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="summary holds 3 vertices, the "
                                             "original graph 4"):
            build_report(original, p3_twin_summary(), oracle_limit=0)

    def test_vertex_count_mismatch_at_default_oracle_limit(self):
        # the count check runs before the brute-force oracle, which would
        # meet vertex 3 without a block
        original = SummaryGraph.from_edge_list([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="summary holds 3 vertices, the "
                                             "original graph 4"):
            build_report(original, p3_twin_summary())
        with pytest.raises(ValueError, match="unknown vertex 3"):
            build_report(original, p3_twin_summary(), sample_of_vertices=[0, 1])

    def test_unknown_sample_vertex(self):
        original = p3()
        with pytest.raises(ValueError, match="unknown vertex 42"):
            build_report(original, p3_twin_summary(), sample_of_vertices=[1, 42])

    def test_edgeless_graph(self):
        original = edgeless()
        summary = original.copy()
        summary.merge(0, 1)
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
            "g = SummaryGraph.from_edge_list([(1, 2), (2, 3)])\n"
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
    original = SummaryGraph.from_edge_list(
        gnp_edges(15, 0.3, rng) + [(99, 99)])
    summary = original.copy()
    for _ in range(rng.randrange(1, original.alive_count)):
        summary.merge(*rng.sample(list(summary.alive_ids()), 2))
    return original, summary


def edgeless_summary(rng):
    original = edgeless()
    summary = original.copy()
    summary.merge(0, 1)
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
        # vertices face the report by label, in the graph's id order
        assert evaluation._input_graph(other).labels.tolist() \
            == list(original.labels)
        assert re_brute(other, summary) == re_brute(original, summary)
        assert triangle_count_exact(other) == triangle_count_exact(original)
        # the default limit takes the brute-force cross-check, 0 skips it
        for limit in (1024, 0):
            assert build_report(other, summary, oracle_limit=limit) \
                == build_report(original, summary, oracle_limit=limit)
        sample = list(original.labels)[::2]
        assert build_report(other, summary, sample_of_vertices=sample) \
            == build_report(original, summary, sample_of_vertices=sample)

    def test_rows_are_csr_arrays(self):
        g = SummaryGraph.from_edge_list([(3, 1), (1, 2), (2, 3), (9, 9)])
        csr = evaluation.InputGraph(g)
        # row r is id r, labelled 3, 1, 2 and 9; its neighbours are rows,
        # in the order of the graph's adjacency maps
        assert csr.labels.tolist() == [3, 1, 2, 9]
        assert csr.indptr.tolist() == [0, 2, 4, 6, 6]
        assert csr.indices.tolist() == [1, 2, 0, 2, 1, 0]
        assert (csr.indptr.dtype, csr.indices.dtype) == (np.int64, np.int32)
        assert neighbour_labels(g) == {3: {1, 2}, 1: {3, 2}, 2: {1, 3}, 9: set()}
        assert (csr.original_vertex_count, csr.original_edge_count) == (4, 3)

    def test_under_half_the_memory_of_a_copy(self):
        g = SummaryGraph.from_edge_list(
            constant_degree_edges(2000, 10, random.Random(3)))
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


# ----------------------------------------------------------------------
# the O(k) forms against the walks over superedges they replace

def assert_re_matches_walk(summary):
    """re_closed reads the d_value cache; re_walk reads every superedge.
    Both sum the same terms up to float rounding, so they agree to a tiny
    fraction of 4m, the largest each could be. The numpy terms of
    re_closed equal those of a Python loop exactly."""
    gap = abs(re_closed(summary) - re_walk(summary))
    assert gap <= 1e-12 * 4 * summary.original_edge_count, gap
    assert re_closed(summary) == re_closed_loop(summary)


def self_loop_graph(rng, n=40, p=0.15, loops=(97, 98, 99)):
    """G(n, p) plus vertices that appear only in self-loops."""
    return SummaryGraph.from_edge_list(
        gnp_edges(n, p, rng) + [(v, v) for v in loops])


class TestReClosedMatchesWalk:
    def test_random_merges(self):
        rng = random.Random(31)
        for _ in range(40):
            g = SummaryGraph.from_edge_list(
                gnp_edges(rng.randint(2, 40), rng.uniform(0.05, 0.7), rng))
            assert_re_matches_walk(g)
            while g.alive_count > 1:
                g.merge(*rng.sample(list(g.alive_ids()), 2))
                assert_re_matches_walk(g)

    def test_self_loop_only_vertices(self):
        rng = random.Random(32)
        for _ in range(10):
            g = self_loop_graph(rng)
            assert re_closed(g) == 0.0
            while g.alive_count > 1:
                g.merge(*rng.sample(list(g.alive_ids()), 2))
                assert_re_matches_walk(g)
        edgeless_graph = edgeless()
        edgeless_graph.merge(0, 1)
        assert re_closed(edgeless_graph) == re_walk(edgeless_graph) == 0.0

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_merge_loop(self, mode):
        g = SummaryGraph.from_edge_list(
            constant_degree_edges(600, 24, random.Random(33)))
        loop = Summarizer(g, SummarizerConfig(
            target_k=60, score_mode=mode, sketch_width=4, sketch_depth=2,
            seed=33))
        while g.alive_count > 60:
            loop.step()
            if g.alive_count % 20 == 0:
                assert_re_matches_walk(g)

    @pytest.mark.parametrize("members", [True, False])
    def test_read_back_summaries(self, tmp_path, members):
        rng = random.Random(34)
        for trial in range(5):
            original, summary = self_loop_vertex_summary(rng)
            path = str(tmp_path / f"{trial}.summary")
            write_summary(summary, path, members=members)
            back = read_summary(path)
            assert (back.member_ids is not None) == members
            assert_re_matches_walk(back)
            assert abs(re_closed(back) - re_walk(summary)) \
                <= 1e-12 * 4 * summary.original_edge_count

    # the library workload shapes of benchmark/workloads.py
    SHAPES = {"sparse-exact": (1 << 14, 6, 1 << 13, "exact"),
              "dense-exact": (4096, 40, 1024, "exact"),
              "dense-sketch": (4096, 40, 1024, "sketch")}

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_library_shapes(self, shape, seed):
        n, degree, k, mode = self.SHAPES[shape]
        g = SummaryGraph.from_edge_list(
            constant_degree_edges(n, degree, random.Random(seed)))
        assert re_closed(g) == 0.0
        Summarizer(g, SummarizerConfig(target_k=k, score_mode=mode,
                                       seed=seed)).run()
        assert_re_matches_walk(g)

    def test_identity_graph_is_exactly_zero(self):
        rng = random.Random(35)
        graphs = [SummaryGraph.from_edge_list(
            constant_degree_edges(2000, 10, rng))]
        graphs += [self_loop_graph(rng, rng.randint(2, 60)) for _ in range(10)]
        graphs.append(edgeless())
        for g in graphs:
            assert re_closed(g) == 0.0


def walked_degree_errors(original, summary, vertices):
    """Each vertex's degree error from the block degree walked over the
    block's superedges, as degree_estimate computes it."""
    index = membership_index(summary)
    rows = neighbour_labels(original)
    return np.array([abs(evaluation._block_degree(summary, index[v])
                         - len(rows[v])) for v in vertices])


def per_superedge_triangle_estimate(summary):
    """triangle_estimate with its two-in-one-block terms taken one per
    superedge, as before they were read from d_value."""
    nodes = summary.nodes
    adj = summary.adj
    terms = []
    for a, node in nodes.items():
        if not node.internal_e:
            continue
        size_a = node.size_n
        density = evaluation._internal_density(summary, a)
        terms.append(math.comb(size_a, 3) * density ** 3)
        pairs = math.comb(size_a, 2)
        for x, edge in adj[a].items():
            size_x = nodes[x].size_n
            pi_ax = edge.cross_e / (size_a * size_x)
            terms.append(pi_ax * pi_ax * pairs * size_x * density)
    for a, b, c in forward_triangles(adj):
        size_a = nodes[a].size_n
        size_b = nodes[b].size_n
        size_c = nodes[c].size_n
        terms.append(size_a * size_b * size_c
                     * (adj[a][b].cross_e / (size_a * size_b))
                     * (adj[b][c].cross_e / (size_b * size_c))
                     * (adj[a][c].cross_e / (size_a * size_c)))
    return math.fsum(terms)


def forward_set_triangle_estimate(summary):
    """triangle_estimate as the forward-set enumeration computed it: the
    same block terms, and each three-block term over Python ints and
    floats for corners a < b < c."""
    adj = summary.adj
    size_n = summary.size_n
    terms = []
    for a in adj:
        if not summary.internal_e[a]:
            continue
        size_a = size_n[a]
        density = evaluation._internal_density(summary, a)
        terms.append(math.comb(size_a, 3) * density ** 3)
        terms.append(math.comb(size_a, 2) * density * summary.d_value[a]
                     / (size_a * size_a))
    for a, b, c in forward_triangles(adj):
        size_a, size_b, size_c = size_n[a], size_n[b], size_n[c]
        terms.append(size_a * size_b * size_c
                     * (adj[a][b].cross_e / (size_a * size_b))
                     * (adj[b][c].cross_e / (size_b * size_c))
                     * (adj[a][c].cross_e / (size_a * size_c)))
    return math.fsum(terms)


class TestReportIdentities:
    CASES = ([functools.partial(random_merged_summary, n=n, p=p)
              for n, p in ((8, 0.5), (30, 0.2), (80, 0.1), (120, 0.3))]
             + [self_loop_vertex_summary, edgeless_summary])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_degree_errors_equal_the_walk(self, case, seed):
        original, summary = self.CASES[case](random.Random(seed))
        rng = random.Random(seed)
        everyone = list(original.labels)
        samples = [None, everyone[::3],
                   [rng.choice(everyone) for _ in range(25)]]
        two_m = 2.0 * original.original_edge_count
        for sample in samples:
            report = build_report(original, summary, sample_of_vertices=sample)
            errors = walked_degree_errors(
                original, summary,
                summary.membership()[0] if sample is None else sample)
            centrality = errors / two_m if two_m else np.zeros_like(errors)
            assert report.degree_err_avg == float(errors.mean())
            assert report.degree_err_std == float(errors.std())
            assert report.centrality_err_avg == float(centrality.mean())
            assert report.centrality_err_std == float(centrality.std())

    def test_unknown_sample_vertex_without_the_oracle(self):
        original = SummaryGraph.from_edge_list([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="unknown vertex 3"):
            build_report(original, p3_twin_summary(), oracle_limit=0,
                         sample_of_vertices=[1, 3])
        with pytest.raises(ValueError, match="unknown vertex 42"):
            build_report(p3(), p3_twin_summary(), oracle_limit=0,
                         sample_of_vertices=[42])

    def test_triangle_block_terms_equal_the_per_superedge_form(self):
        rng = random.Random(36)
        summaries = [self.CASES[case](rng)[1]
                     for case in range(len(self.CASES)) for _ in range(5)]
        g = SummaryGraph.from_edge_list(
            constant_degree_edges(3000, 12, random.Random(37)))
        Summarizer(g, SummarizerConfig(target_k=300, seed=37)).run()
        summaries.append(g)
        for summary in summaries:
            assert math.isclose(triangle_estimate(summary),
                                per_superedge_triangle_estimate(summary),
                                rel_tol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_triangle_estimate_bits_equal_the_forward_set_form(self, seed):
        rng = random.Random(seed)
        summaries = [random_merged_summary(rng, 60, 0.3)[1] for _ in range(10)]
        g = SummaryGraph.from_edge_list(
            preferential_attachment_edges(3000, 8, rng))
        for k in (1500, 300):
            Summarizer(g, SummarizerConfig(target_k=k, seed=seed)).run()
            summaries.append(g.copy())
        for summary in summaries:
            assert triangle_estimate(summary).hex() \
                == forward_set_triangle_estimate(summary).hex()
