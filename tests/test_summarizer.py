import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (alive_slots, constant_degree_edges, gnp_edges, score_oracle,
                      sketch_of)
from graphsumm import (CountMinSketch, SamplingTree, Summarizer, SummarizerConfig,
                       SummaryGraph, make_hash_seeds, node_weight, re_brute,
                       re_closed, sample_pairs, score_approx, score_exact,
                       summarize)
from graphsumm.summarizer import build_sketches, parse_sample_rule, sample_size


def p3(retain=False):
    return SummaryGraph.from_edge_list([(1, 2), (2, 3)], retain_members=retain)


def star3():
    return SummaryGraph.from_edge_list([(0, 1), (0, 2), (0, 3)])


class TestConfig:
    def test_sample_rules(self):
        assert sample_size("logn", 8) == 3
        assert sample_size("5logn", 8) == 15
        assert sample_size("log2n", 8) == 9
        assert sample_size("fixed:7", 2) == 7
        assert sample_size("logn", 1) == 1  # floor of one pair

    def test_bad_rules(self):
        with pytest.raises(ValueError):
            parse_sample_rule("fixed:zero")
        with pytest.raises(ValueError):
            parse_sample_rule("nlogn")
        with pytest.raises(ValueError):
            SummarizerConfig(target_k=0)
        with pytest.raises(ValueError):
            SummarizerConfig(target_k=2, score_mode="magic")


class TestNodeWeight:
    def test_isolated_singleton_zero(self):
        g = SummaryGraph.from_edge_list([(1, 2), (7, 7)])
        assert node_weight(g, 7) == 0.0

    def test_path_weights(self):
        g = p3()
        assert node_weight(g, 1) == pytest.approx(0.25)
        assert node_weight(g, 2) == pytest.approx(0.125)
        total = sum(node_weight(g, a) for a in g.alive_ids())
        assert node_weight(g, 2) / total == pytest.approx(0.2)

    def test_nonnegative_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(20):
            g = SummaryGraph.from_edge_list(gnp_edges(rng.randint(3, 12), 0.4, rng))
            for _ in range(rng.randrange(g.alive_count - 1)):
                a, b = rng.sample(list(g.alive_ids()), 2)
                g.merge(a, b)
            for a in g.alive_ids():
                assert node_weight(g, a) >= 0.0


class TestScoreExact:
    def test_single_edge_zero(self):
        g = SummaryGraph.from_edge_list([(1, 2)])
        assert score_exact(g, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_path_twins_zero(self):
        assert score_exact(p3(), 1, 3) == pytest.approx(0.0, abs=1e-12)

    def test_path_adjacent_negative(self):
        assert score_exact(p3(), 1, 2) == pytest.approx(-2.0)

    def test_invalid_pair(self):
        g = p3()
        with pytest.raises(ValueError):
            score_exact(g, 1, 1)
        g.merge(1, 2)
        with pytest.raises(ValueError):
            score_exact(g, 1, 3)

    def test_matches_re_delta_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            g = SummaryGraph.from_edge_list(gnp_edges(rng.randint(3, 12), 0.35, rng))
            for _ in range(rng.randrange(max(1, g.alive_count - 2))):
                a, b = rng.sample(list(g.alive_ids()), 2)
                g.merge(a, b)
            alive = list(g.alive_ids())
            for i, a in enumerate(alive):
                for b in alive[i + 1:]:
                    assert score_exact(g, a, b) == pytest.approx(
                        score_oracle(g, a, b), abs=1e-9)

    def test_argmax_matches_argmin_post_merge_re(self):
        rng = random.Random(29)
        for _ in range(20):
            g = SummaryGraph.from_edge_list(gnp_edges(rng.randint(4, 10), 0.4, rng))
            alive = list(g.alive_ids())
            pairs = [(a, b) for i, a in enumerate(alive) for b in alive[i + 1:]]
            by_score = max(pairs, key=lambda ab: score_exact(g, *ab))
            def post_re(ab):
                trial = g.copy()
                trial.merge(*ab)
                return re_closed(trial)
            assert post_re(by_score) == pytest.approx(
                min(post_re(ab) for ab in pairs), abs=1e-9)


class TestScoreApprox:
    def test_equals_exact_without_collisions(self):
        # disjoint neighborhoods and width far above support: nothing collides
        g = SummaryGraph.from_edge_list([(0, 1), (2, 3)])
        sketches = build_sketches(g, 256, 2, make_hash_seeds(2, 1), alive_slots(g))
        assert score_approx(g, 0, 2, sketches) == pytest.approx(
            score_exact(g, 0, 2), abs=1e-12)

    def test_path_twins_within_bound(self):
        g = p3()
        sketches = build_sketches(g, 8, 2, make_hash_seeds(2, 2), alive_slots(g))
        epsilon = 1.0 / 8
        mass_bound = epsilon * sketches[1].l1_mass * sketches[3].l1_mass
        approx = score_approx(g, 1, 3, sketches)
        assert 0.0 - 1e-12 <= approx <= (8.0 / 2) * mass_bound + 1e-12

    def test_random_graph_overestimates_within_bound(self):
        rng = random.Random(47)
        edges = gnp_edges(20, 0.3, rng)
        g = SummaryGraph.from_edge_list(edges)
        width, depth = 16, 2
        sketches = build_sketches(g, width, depth, make_hash_seeds(depth, 9),
                                  alive_slots(g))
        alive = list(g.alive_ids())
        over_bound = 0
        pair_count = 0
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                exact = score_exact(g, a, b)
                approx = score_approx(g, a, b, sketches)
                assert approx >= exact - 1e-9  # float dust only
                size_z = g.nodes[a].size_n + g.nodes[b].size_n
                bound = (8.0 / size_z) * (1.0 / width) * \
                    sketches[a].l1_mass * sketches[b].l1_mass
                pair_count += 1
                if approx - exact > bound:
                    over_bound += 1
        assert over_bound / pair_count <= math.exp(-depth) + 0.05

    def test_incompatible_sketches(self):
        g = p3()
        slots = alive_slots(g)
        sketches = dict(build_sketches(g, 8, 2, make_hash_seeds(2, 2), slots))
        sketches[3] = build_sketches(g, 8, 2, make_hash_seeds(2, 3), slots)[3]
        with pytest.raises(ValueError, match="incompatible"):
            score_approx(g, 1, 3, sketches)


class TestSamplePairs:
    def test_weighted_draw_frequency(self):
        g = p3()
        tree = SamplingTree.build([(a, node_weight(g, a)) for a in g.alive_ids()])
        rng = random.Random(101)
        draws = 0
        hits = 0
        for _ in range(5000):
            for a, _b in sample_pairs(g, tree, 1, rng):
                draws += 1
                hits += a == 1
        # endpoint 1 carries weight 0.25 of 0.625 = 0.4 per unconditioned draw
        assert abs(hits / draws - 0.4) < 0.02

    def test_two_alive_always_the_pair(self):
        g = p3()
        z = g.merge(1, 2)
        tree = SamplingTree.build([(a, node_weight(g, a)) for a in g.alive_ids()])
        rng = random.Random(5)
        for a, b in sample_pairs(g, tree, 20, rng):
            assert {a, b} == {z, 3}

    def test_zero_weight_fallback_uniform(self):
        g = p3()
        tree = SamplingTree.build([(a, 0.0) for a in g.alive_ids()])
        rng = random.Random(6)
        pairs = sample_pairs(g, tree, 50, rng)
        seen = set()
        for a, b in pairs:
            assert a != b
            assert g.is_alive(a) and g.is_alive(b)
            seen.update((a, b))
        assert seen == set(g.alive_ids())

    def test_concentrated_mass_still_yields_distinct_pairs(self):
        for weights in ([(1, 1.0), (2, 0.0), (3, 0.0)],
                        [(1, 1e9), (2, 1.0), (3, 1.0)]):
            g = p3()
            tree = SamplingTree.build(weights)
            sums = list(tree._sums)
            for a, b in sample_pairs(g, tree, 2000, random.Random(0)):
                assert a != b
                assert g.is_alive(a) and g.is_alive(b)
            assert tree._sums == sums

    def test_partner_excludes_first_mass(self):
        stats = pytest.importorskip("scipy.stats")
        g = SummaryGraph.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)])
        weights = {0: 40.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        tree = SamplingTree.build(sorted(weights.items()))
        total = sum(weights.values())
        partners = {v: {x: 0 for x in weights if x != v} for v in weights}
        for a, b in sample_pairs(g, tree, 40_000, random.Random(12)):
            partners[a][b] += 1
        for first, counts in partners.items():
            drawn = sum(counts.values())
            rest = total - weights[first]
            expected = [weights[x] / rest * drawn for x in counts]
            assert stats.chisquare(list(counts.values()), expected).pvalue > 0.001


class TestSummarize:
    def test_k_equals_n_is_identity(self):
        g = p3(retain=True)
        out = summarize(g, SummarizerConfig(target_k=3, seed=1))
        assert out.alive_count == 3
        assert re_closed(out) == 0.0

    def test_k_one_path(self):
        out = summarize(p3(), SummarizerConfig(target_k=1, seed=4))
        assert re_closed(out) == pytest.approx(8.0 / 3.0)

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            summarize(p3(), SummarizerConfig(target_k=4))

    def test_star_optimum_and_score_ordering(self):
        g = star3()
        leaves = [1, 2, 3]
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert score_exact(g, a, b) == pytest.approx(0.0, abs=1e-12)
            assert score_exact(g, 0, a) < -1e-9
        # the optimal 2-block partition really has zero error
        retained = SummaryGraph.from_edge_list([(0, 1), (0, 2), (0, 3)],
                                               retain_members=True)
        best = retained.copy()
        z = best.merge(1, 2)
        best.merge(z, 3)
        assert re_brute(retained, best) == pytest.approx(0.0, abs=1e-12)

    def test_majority_of_seeds_reach_zero_error_on_star(self):
        zero = 0
        for seed in range(30):
            g = star3()
            out = summarize(g, SummarizerConfig(target_k=2, sample_rule="5logn",
                                                seed=seed))
            zero += re_closed(out) < 1e-9
        assert zero >= 27

    def test_deterministic_partitions(self):
        rng = random.Random(55)
        edges = gnp_edges(40, 0.15, rng)

        def run():
            g = SummaryGraph.from_edge_list(edges, retain_members=True)
            out = summarize(g, SummarizerConfig(target_k=10, seed=1234,
                                                score_mode="sketch",
                                                sketch_width=32))
            return sorted(frozenset(node.members)
                          for node in out.nodes.values() if node.alive)

        assert run() == run()

    def test_monotone_bookkeeping(self):
        rng = random.Random(77)
        g = SummaryGraph.from_edge_list(gnp_edges(30, 0.2, rng))
        driver = Summarizer(g, SummarizerConfig(target_k=5, seed=9))
        while g.alive_count > 5:
            before = g.alive_count
            driver.step()
            assert g.alive_count == before - 1
            assert set(driver.tree.vertices()) == set(g.alive_ids())
        assert driver.iterations == 25
        g.validate()

    def test_step_merges_first_encountered_argmax(self):
        rng = random.Random(88)
        g = SummaryGraph.from_edge_list(gnp_edges(25, 0.25, rng))
        driver = Summarizer(g, SummarizerConfig(target_k=20, seed=14))
        merged = driver.step()
        candidates = driver.last_candidates
        assert candidates and driver.cfg.score_mode == "exact"
        winner = max(candidates, key=lambda c: c.score)
        first_best = next(c for c in candidates if c.score == winner.score)
        assert not g.is_alive(first_best.a)
        assert not g.is_alive(first_best.b)
        assert g.is_alive(merged)

    def test_sketch_mode_keeps_sketches_in_sync(self):
        rng = random.Random(13)
        g = SummaryGraph.from_edge_list(gnp_edges(24, 0.25, rng))
        cfg = SummarizerConfig(target_k=6, seed=2, score_mode="sketch",
                               sketch_width=32)
        loop = Summarizer(g, cfg)
        loop.run()
        seeds = next(iter(loop.sketches.values())).seeds
        fresh = build_sketches(g, 32, 2, seeds, alive_slots(g))
        for a in g.alive_ids():
            diff = abs(loop.sketches[a].cells - fresh[a].cells).max()
            assert diff < 1e-9
            assert abs(loop.sketches[a].l1_mass - fresh[a].l1_mass) < 1e-9

    def test_sketch_patch_replays_per_coordinate_updates(self):
        # Oracle: standalone sketches patched one coordinate at a time, in
        # the order detach a, detach b, combine minus the mutual
        # coordinates, attach z. Width 4 makes buckets collide. Each sketch
        # is the row at its tree slot, and z's row may be a stale one.
        rng = random.Random(31)
        g = SummaryGraph.from_edge_list(gnp_edges(30, 0.3, rng))
        cfg = SummarizerConfig(target_k=4, seed=5, score_mode="sketch",
                               sketch_width=4)
        loop = Summarizer(g, cfg)
        seeds = make_hash_seeds(2, cfg.seed)

        def scaled(graph, a):
            return {x: edge.cross_e / math.sqrt(graph.nodes[x].size_n)
                    for x, edge in graph.adj[a].items()}

        oracle = {a: sketch_of(scaled(g, a), 4, 2, seeds) for a in g.alive_ids()}
        mutual_merges = 0
        stale_row = 0
        while g.alive_count > cfg.target_k:
            before = g.copy()
            slots = dict(loop.tree.slot_of)
            z = loop.step()
            best = max(loop.last_candidates, key=lambda c: c.score)
            a, b = best.a, best.b
            for u, v in ((a, b), (b, a)):
                sqrt_u = math.sqrt(before.nodes[u].size_n)
                for x, edge in before.adj[u].items():
                    if x != v:
                        oracle[x].update(u, -edge.cross_e / sqrt_u)
            merged = CountMinSketch.combined(oracle.pop(a), oracle.pop(b))
            e_ab = before.cross_count(a, b)
            if e_ab:
                mutual_merges += 1
                merged.update(b, -e_ab / math.sqrt(before.nodes[b].size_n))
                merged.update(a, -e_ab / math.sqrt(before.nodes[a].size_n))
            oracle[z] = merged
            inv_sqrt_z = 1.0 / math.sqrt(g.nodes[z].size_n)
            for x, edge in g.adj[z].items():
                oracle[x].update(z, edge.cross_e * inv_sqrt_z)
            assert set(loop.sketches) == set(oracle) == set(g.alive_ids())
            assert set(loop.sketches) == set(loop.tree.vertices())
            stale_row += loop.tree.slot_of[z] not in (slots[a], slots[b])
            for x, expected in oracle.items():
                assert np.shares_memory(
                    loop.sketches[x].cells,
                    loop.sketches.cells[loop.tree.slot_of[x]])
                assert np.array_equal(loop.sketches[x].cells, expected.cells)
                assert loop.sketches[x].l1_mass == expected.l1_mass
        assert mutual_merges > 0
        assert stale_row > 0

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_tree_matches_per_leaf_patch_sequence(self, mode):
        # Reference: a tree driven by delete(a), delete(b), insert(z) and
        # one update_weight per neighbor of z, with node_weight's values.
        rng = random.Random(41)
        g = SummaryGraph.from_edge_list(constant_degree_edges(160, 36, rng))
        loop = Summarizer(g, SummarizerConfig(target_k=20, seed=8, score_mode=mode,
                                              sketch_width=16))
        reference = SamplingTree.build([(a, node_weight(g, a)) for a in g.alive_ids()])
        older_slot = 0
        while g.alive_count > 20:
            slots = dict(loop.tree.slot_of)
            z = loop.step()
            best = max(loop.last_candidates, key=lambda c: c.score)
            reference.delete(best.a)
            reference.delete(best.b)
            reference.insert(z, node_weight(g, z))
            for x in g.adj[z]:
                reference.update_weight(x, node_weight(g, x))
            assert loop.tree._sums == reference._sums
            assert loop.tree.slot_of == reference.slot_of
            for x in g.alive_ids():
                assert loop.tree.weight_of(x) == node_weight(g, x)
            older_slot += loop.tree.slot_of[z] not in (slots[best.a], slots[best.b])
        assert older_slot > 0

    # Merged pairs recorded before the merge loop patched the tree and the
    # sketches from one walk; the loop must keep merging the same pairs.
    GOLDEN = [
        (lambda: gnp_edges(36, 0.2, random.Random(61)), 9, "exact", 71,
         [(9, 31), (22, 4), (19, 26), (18, 8), (10, 24), (6, 7), (3, 40), (42, 0),
          (34, 20), (44, 27), (16, 2), (32, 5), (43, 28), (21, 23), (1, 17),
          (15, 45), (14, 35), (38, 41), (30, 46), (48, 13), (11, 29), (51, 50),
          (37, 33), (47, 54), (55, 39), (49, 36), (59, 25)]),
        (lambda: gnp_edges(36, 0.2, random.Random(61)), 9, "sketch", 72,
         [(10, 17), (21, 12), (4, 6), (25, 36), (18, 16), (30, 37), (13, 20),
          (5, 33), (22, 35), (40, 44), (28, 0), (32, 41), (8, 1), (9, 47),
          (24, 34), (23, 49), (2, 38), (31, 52), (7, 53), (3, 43), (15, 45),
          (19, 14), (27, 11), (54, 50), (51, 42), (58, 26), (46, 55)]),
        (lambda: constant_degree_edges(48, 8, random.Random(62)), 12, "exact", 73,
         [(27, 28), (14, 3), (35, 40), (50, 30), (37, 20), (47, 48), (0, 4),
          (8, 2), (53, 51), (23, 15), (21, 44), (25, 18), (5, 38), (31, 9),
          (55, 49), (42, 62), (43, 63), (59, 26), (65, 60), (56, 7), (32, 22),
          (24, 68), (41, 6), (46, 12), (19, 17), (34, 67), (45, 52), (74, 64),
          (70, 29), (11, 16), (66, 75), (13, 77), (72, 36), (39, 61), (1, 71),
          (76, 57)]),
        (lambda: constant_degree_edges(48, 8, random.Random(62)), 12, "sketch", 74,
         [(42, 41), (25, 36), (35, 48), (34, 28), (17, 0), (23, 22), (47, 8),
          (9, 20), (6, 43), (10, 18), (52, 14), (21, 57), (12, 13), (45, 56),
          (7, 49), (4, 51), (55, 19), (30, 58), (26, 64), (37, 54), (29, 60),
          (5, 24), (27, 39), (1, 59), (69, 66), (11, 61), (71, 46), (70, 73),
          (63, 68), (2, 50), (76, 75), (16, 3), (44, 33), (67, 79), (72, 80),
          (81, 78)]),
    ]

    @pytest.mark.parametrize("make_edges, k, mode, seed, expected", GOLDEN)
    def test_golden_merge_sequence(self, make_edges, k, mode, seed, expected):
        g = SummaryGraph.from_edge_list(make_edges())
        loop = Summarizer(g, SummarizerConfig(target_k=k, score_mode=mode,
                                              sketch_width=8, seed=seed))
        merged = []
        while g.alive_count > k:
            loop.step()
            best = max(loop.last_candidates, key=lambda c: c.score)
            merged.append((best.a, best.b))
        assert merged == expected

    def test_concurrent_scoring_matches_serial(self):
        rng = random.Random(3)
        g = SummaryGraph.from_edge_list(gnp_edges(30, 0.2, rng))
        alive = list(g.alive_ids())
        pairs = [(a, b) for i, a in enumerate(alive) for b in alive[i + 1:]]
        serial = [score_exact(g, a, b) for a, b in pairs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda ab: score_exact(g, *ab), pairs))
        assert parallel == serial
