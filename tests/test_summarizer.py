import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import (constant_degree_edges, gnp_edges, member_sets,
                      pair_sketches, scaled_vector, score_oracle, sketch_of)
from graphsumm import (CountMinSketch, SamplingTree, Summarizer,
                       SummarizerConfig, SummaryGraph, make_hash_seeds,
                       node_weight, re_brute, re_closed, sample_pairs,
                       score_approx, score_exact, summarize)
from graphsumm import summarizer as summarizer_module
from graphsumm.cli import main
from graphsumm.summarizer import parse_sample_rule, sample_size


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
        sketches = pair_sketches(g, 0, 2, 256, 2, make_hash_seeds(2, 1))
        assert score_approx(g, 0, 2, sketches) == pytest.approx(
            score_exact(g, 0, 2), abs=1e-12)

    def test_path_twins_within_bound(self):
        g = p3()
        sketches = pair_sketches(g, 1, 3, 8, 2, make_hash_seeds(2, 2))
        epsilon = 1.0 / 8
        mass_bound = epsilon * sketches[1].l1_mass * sketches[3].l1_mass
        approx = score_approx(g, 1, 3, sketches)
        assert 0.0 - 1e-12 <= approx <= (8.0 / 2) * mass_bound + 1e-12

    def test_random_graph_overestimates_within_bound(self):
        rng = random.Random(47)
        edges = gnp_edges(20, 0.3, rng)
        g = SummaryGraph.from_edge_list(edges)
        width, depth = 16, 2
        seeds = make_hash_seeds(depth, 9)
        alive = list(g.alive_ids())
        over_bound = 0
        pair_count = 0
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                exact = score_exact(g, a, b)
                sketches = pair_sketches(g, a, b, width, depth, seeds)
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
        sketches = pair_sketches(g, 1, 3, 8, 2, make_hash_seeds(2, 2))
        sketches[3] = pair_sketches(g, 1, 3, 8, 2, make_hash_seeds(2, 3))[3]
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
            return sorted(map(frozenset, member_sets(out).values()))

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

    def test_sketch_scores_equal_sketches_of_current_vectors(self):
        # Oracle: each candidate pair of two nodes above width * depth = 16
        # scores exactly as score_approx on per-coordinate sketches of the
        # two nodes' vectors at scoring time, each without the other's
        # coordinate, bit for bit. Width 8 makes buckets collide.
        rng = random.Random(13)
        g = SummaryGraph.from_edge_list(gnp_edges(60, 0.3, rng))
        cfg = SummarizerConfig(target_k=6, seed=2, score_mode="sketch",
                               sketch_width=8)
        loop = Summarizer(g, cfg)
        seeds = make_hash_seeds(2, cfg.seed)
        sketched = adjacent = 0
        while g.alive_count > cfg.target_k:
            before = g.copy()
            loop.step()
            for c in loop.last_candidates:
                if before.degree(c.a) > 16 and before.degree(c.b) > 16:
                    reference = pair_sketches(before, c.a, c.b, 8, 2, seeds)
                    assert c.score == score_approx(before, c.a, c.b, reference)
                    sketched += 1
                    adjacent += before.cross_count(c.a, c.b) > 0
        assert sketched > adjacent > 0

    def test_sketch_mode_keeps_sketches_in_sync(self, monkeypatch):
        # Every sketch the loop builds is, cell for cell, a sketch of its
        # node's vector at that moment without the coordinates of the other
        # ids built with it, only of a node above width * depth = 16, and the
        # loop keeps none between steps.
        rng = random.Random(13)
        g = SummaryGraph.from_edge_list(gnp_edges(60, 0.3, rng))
        cfg = SummarizerConfig(target_k=6, seed=2, score_mode="sketch",
                               sketch_width=8)
        seeds = make_hash_seeds(2, cfg.seed)
        built = 0

        def checked_build(graph, ids, width, depth, hash_seeds):
            nonlocal built
            sketches = build_sketches(graph, ids, width, depth, hash_seeds)
            for a, sketch in sketches.items():
                assert graph.degree(a) > 16
                fresh = sketch_of(scaled_vector(graph, a, ids), 8, 2, seeds)
                assert abs(sketch.cells - fresh.cells).max() < 1e-9
                assert abs(sketch.l1_mass - fresh.l1_mass) < 1e-9
                built += 1
            return sketches

        build_sketches = summarizer_module.build_sketches
        monkeypatch.setattr(summarizer_module, "build_sketches", checked_build)
        loop = Summarizer(g, cfg)
        while g.alive_count > cfg.target_k:
            loop.step()
            for value in vars(loop).values():
                held = value.values() if isinstance(value, dict) else [value]
                assert not any(isinstance(v, CountMinSketch) for v in held)
        assert built > 0

    def test_scoring_a_step_twice_gives_the_same_scores(self):
        # Once a step has scored its 6 candidates, scoring them all again
        # gives the same scores, and neither pass changes the graph.
        rng = random.Random(13)
        g = SummaryGraph.from_edge_list(gnp_edges(60, 0.3, rng))
        loop = Summarizer(g, SummarizerConfig(target_k=6, seed=2,
                                              sample_rule="fixed:6",
                                              score_mode="sketch",
                                              sketch_width=8))
        score = loop.score
        scored = []
        adjacency = None
        sketched = 0

        def snapshot():
            return {a: {x: edge.cross_e for x, edge in g.adj[a].items()}
                    for a in g.alive_ids()}

        def score_twice(a, b):
            nonlocal adjacency, sketched
            if not scored:
                adjacency = snapshot()
            value = score(a, b)
            scored.append((a, b, value))
            if len(scored) == 6:
                assert [score(a, b) for a, b, _ in scored] == [v for *_, v in scored]
                assert snapshot() == adjacency
                sketched += sum(g.degree(a) > 16 and g.degree(b) > 16
                                for a, b, _ in scored)
                scored.clear()
            return value

        loop.score = score_twice
        loop.run()
        assert sketched > 0

    def test_sketch_rows_built_only_for_sketch_scored_pairs(self, monkeypatch):
        # Each sketch-scored pair builds the sketches of its two ends, and
        # nothing else builds one.
        scored = builds = 0

        def counting_approx(g, a, b, sketches):
            nonlocal scored
            scored += 1
            assert set(sketches) == {a, b}
            return score_approx(g, a, b, sketches)

        def counting_from_vector(cls, *args):
            nonlocal builds
            builds += 1
            return from_vector(*args)

        from_vector = CountMinSketch.from_vector
        monkeypatch.setattr(summarizer_module, "score_approx", counting_approx)
        monkeypatch.setattr(CountMinSketch, "from_vector",
                            classmethod(counting_from_vector))
        rng = random.Random(19)
        g = SummaryGraph.from_edge_list(gnp_edges(70, 0.25, rng))
        loop = Summarizer(g, SummarizerConfig(target_k=8, seed=3,
                                              score_mode="sketch",
                                              sketch_width=8))
        loop.run()
        assert scored > 0 and builds == 2 * scored

    def test_sketch_scores_only_heavy_pairs(self):
        # A pair is scored with the sketch only when both degrees exceed
        # width * depth = 16; every other candidate gets score_exact's
        # value, and a sketched one never less (up to float dust).
        rng = random.Random(19)
        g = SummaryGraph.from_edge_list(gnp_edges(70, 0.25, rng))
        loop = Summarizer(g, SummarizerConfig(target_k=8, seed=3,
                                              score_mode="sketch",
                                              sketch_width=8))
        sketched = exact = 0
        while g.alive_count > 8:
            before = g.copy()
            loop.step()
            for c in loop.last_candidates:
                value = score_exact(before, c.a, c.b)
                if min(before.degree(c.a), before.degree(c.b)) <= 16:
                    assert c.score == value
                    exact += 1
                else:
                    assert c.score >= value - 1e-9
                    sketched += 1
        assert sketched > 0 and exact > 0

    def test_sketch_mode_without_heavy_nodes_is_exact_mode(self, tmp_path,
                                                           monkeypatch):
        # width * depth exceeds every degree of a 60-node graph, so sketch
        # mode builds no sketch, draws no hash seed and scores every pair
        # exactly. Width 10**9 must allocate nothing of its size, and depth
        # 10**9 must not draw a seed per row.
        def no_build(*args):
            raise AssertionError("built a sketch")

        def no_seeds(*args):
            raise AssertionError("drew hash seeds")

        monkeypatch.setattr(summarizer_module, "build_sketches", no_build)
        monkeypatch.setattr(summarizer_module, "make_hash_seeds", no_seeds)
        rng = random.Random(23)
        edges = gnp_edges(60, 0.2, rng)
        graph_file = tmp_path / "graph.txt"
        graph_file.write_text("".join(f"{u} {v}\n" for u, v in edges))
        for width, depth in ((64, 2), (10**9, 2), (64, 10**9)):
            merged = {}
            for mode in ("exact", "sketch"):
                g = SummaryGraph.from_edge_list(edges)
                loop = Summarizer(g, SummarizerConfig(target_k=10, seed=6,
                                                      score_mode=mode,
                                                      sketch_width=width,
                                                      sketch_depth=depth))
                merged[mode] = []
                while g.alive_count > 10:
                    loop.step()
                    best = max(loop.last_candidates, key=lambda c: c.score)
                    merged[mode].append((best.a, best.b))
            assert merged["sketch"] == merged["exact"]
            payloads = []
            for mode in ("exact", "sketch"):
                out = tmp_path / f"{mode}.summary"
                assert main(["--input", str(graph_file), "--k", "10",
                             "--seed", "6", "--score", mode,
                             "--width", str(width), "--depth", str(depth),
                             "--retain-members",
                             "--summary-out", str(out)]) == 0
                payloads.append(out.read_bytes())
            assert payloads[0] == payloads[1]

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

    # Merged pairs recorded before the merge loop patched the tree from one
    # walk (exact mode) and after sketch mode began scoring only pairs of
    # two nodes above width * depth with the sketch (sketch mode); the loop
    # must keep merging the same pairs. Width 2 puts that threshold at 4,
    # so about a third of the sketch-mode candidates are sketch-scored;
    # exact mode ignores the width.
    GOLDEN = [
        (lambda: gnp_edges(36, 0.2, random.Random(61)), 9, "exact", 71,
         [(9, 31), (22, 4), (19, 26), (18, 8), (10, 24), (6, 7), (3, 40), (42, 0),
          (34, 20), (44, 27), (16, 2), (32, 5), (43, 28), (21, 23), (1, 17),
          (15, 45), (14, 35), (38, 41), (30, 46), (48, 13), (11, 29), (51, 50),
          (37, 33), (47, 54), (55, 39), (49, 36), (59, 25)]),
        (lambda: gnp_edges(36, 0.2, random.Random(61)), 9, "sketch", 72,
         [(10, 17), (21, 12), (4, 6), (38, 18), (39, 2), (30, 35), (1, 24),
          (5, 3), (33, 14), (40, 41), (0, 15), (16, 36), (23, 7), (42, 29),
          (34, 22), (48, 28), (51, 32), (9, 31), (13, 37), (47, 45), (25, 49),
          (19, 26), (50, 8), (11, 20), (59, 56), (27, 58), (55, 54)]),
        (lambda: constant_degree_edges(48, 8, random.Random(62)), 12, "exact", 73,
         [(27, 28), (14, 3), (35, 40), (50, 30), (37, 20), (47, 48), (0, 4),
          (8, 2), (53, 51), (23, 15), (21, 44), (25, 18), (5, 38), (31, 9),
          (55, 49), (42, 62), (43, 63), (59, 26), (65, 60), (56, 7), (32, 22),
          (24, 68), (41, 6), (46, 12), (19, 17), (34, 67), (45, 52), (74, 64),
          (70, 29), (11, 16), (66, 75), (13, 77), (72, 36), (39, 61), (1, 71),
          (76, 57)]),
        (lambda: constant_degree_edges(48, 8, random.Random(62)), 12, "sketch", 74,
         [(42, 41), (25, 36), (35, 48), (43, 15), (45, 50), (28, 22), (10, 31),
          (9, 39), (27, 52), (12, 29), (26, 33), (47, 34), (24, 23), (59, 60),
          (58, 49), (4, 44), (16, 8), (37, 61), (54, 13), (63, 51), (3, 0),
          (11, 65), (30, 6), (56, 69), (18, 68), (19, 38), (73, 66), (71, 17),
          (57, 32), (76, 21), (2, 14), (78, 70), (40, 72), (1, 46), (64, 80),
          (75, 53)]),
    ]

    @pytest.mark.parametrize("make_edges, k, mode, seed, expected", GOLDEN)
    def test_golden_merge_sequence(self, make_edges, k, mode, seed, expected):
        g = SummaryGraph.from_edge_list(make_edges())
        loop = Summarizer(g, SummarizerConfig(target_k=k, score_mode=mode,
                                              sketch_width=2, seed=seed))
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
