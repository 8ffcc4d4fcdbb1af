import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import (constant_degree_edges, gnp_edges, l1_mass, member_sets,
                      pair_sketches, re_walk, scaled_vector, score_oracle,
                      sketch_of)
from graphsumm import (CountMinSketch, SamplingTree, Summarizer,
                       SummarizerConfig, SummaryGraph, make_hash_seeds,
                       node_weight, re_brute, re_closed, sample_pairs,
                       score_approx, score_exact, summarize)
from graphsumm import summarizer as summarizer_module
from graphsumm.cli import main
from graphsumm.summarizer import sample_size


def p3():
    return SummaryGraph.from_edge_list([(0, 1), (1, 2)])


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
            sample_size("fixed:zero", 8)
        with pytest.raises(ValueError):
            sample_size("nlogn", 8)
        with pytest.raises(ValueError):
            SummarizerConfig(target_k=0)
        with pytest.raises(ValueError):
            SummarizerConfig(target_k=2, score_mode="magic")


class TestNodeWeight:
    def test_isolated_singleton_zero(self):
        # vertex 7 is id 2
        g = SummaryGraph.from_edge_list([(1, 2), (7, 7)])
        assert node_weight(g, 2) == 0.0

    def test_path_weights(self):
        g = p3()
        assert node_weight(g, 0) == pytest.approx(0.25)
        assert node_weight(g, 1) == pytest.approx(0.125)
        total = sum(node_weight(g, a) for a in g.alive_ids())
        assert node_weight(g, 1) / total == pytest.approx(0.2)

    def test_nonnegative_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(20):
            g = SummaryGraph.from_edge_list(gnp_edges(rng.randint(3, 12), 0.4, rng))
            for _ in range(rng.randrange(g.alive_count - 1)):
                a, b = rng.sample(list(g.alive_ids()), 2)
                g.merge(a, b)
            for a in g.alive_ids():
                assert node_weight(g, a) >= 0.0

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_node_weights_is_the_one_patch_point(self, mode, monkeypatch):
        # a uniform-sampling ablation patches node_weights alone: every
        # leaf, the tree's first ones and every merge's, must take it
        monkeypatch.setattr(summarizer_module, "node_weights",
                            lambda g, ids: [1.0] * len(ids))
        g = SummaryGraph.from_edge_list(gnp_edges(60, 0.3, random.Random(13)))
        loop = Summarizer(g, SummarizerConfig(target_k=6, seed=2, score_mode=mode,
                                              sketch_width=8))
        tree = loop.tree
        assert {tree.weight_of(v) for v in tree.vertices()} == {1.0}
        while g.alive_count > 6:
            loop.step()
            assert tree.vertices() == sorted(g.alive_ids())
            assert {tree.weight_of(v) for v in tree.vertices()} == {1.0}


class TestScoreExact:
    def test_single_edge_zero(self):
        g = SummaryGraph.from_edge_list([(1, 2)])
        assert score_exact(g, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_path_twins_zero(self):
        assert score_exact(p3(), 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_path_adjacent_negative(self):
        assert score_exact(p3(), 0, 1) == pytest.approx(-2.0)

    def test_invalid_pair(self):
        g = p3()
        with pytest.raises(ValueError):
            score_exact(g, 0, 0)
        g.merge(0, 1)
        with pytest.raises(ValueError):
            score_exact(g, 1, 2)  # 1 is merged into 0
        with pytest.raises(ValueError):
            score_exact(g, 2, 1)
        assert score_exact(g, 0, 2) == pytest.approx(score_oracle(g, 0, 2), abs=1e-9)

    @pytest.mark.parametrize("never", [-1, 3])
    def test_ids_the_graph_never_had(self, never):
        # -1 and len(size_n) have no statistics slot and no adjacency entry;
        # both scores reject them as a bad pair before reading either
        g = p3()
        assert len(g.size_n) == 3
        sketches = pair_sketches(g, 0, 2, 4, 2, make_hash_seeds(2, 1))
        for a, b in [(never, 0), (0, never)]:
            with pytest.raises(ValueError, match="invalid pair"):
                score_exact(g, a, b)
            with pytest.raises(ValueError, match="invalid pair"):
                score_approx(g, a, b, sketches)

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
                return re_walk(trial)
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
        sketches = pair_sketches(g, 0, 2, 8, 2, make_hash_seeds(2, 2))
        epsilon = 1.0 / 8
        mass_bound = epsilon * l1_mass(sketches[0]) * l1_mass(sketches[2])
        approx = score_approx(g, 0, 2, sketches)
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
                    l1_mass(sketches[a]) * l1_mass(sketches[b])
                pair_count += 1
                if approx - exact > bound:
                    over_bound += 1
        assert over_bound / pair_count <= math.exp(-depth) + 0.05

    def test_incompatible_sketches(self):
        g = p3()
        sketches = pair_sketches(g, 0, 2, 8, 2, make_hash_seeds(2, 2))
        sketches[2] = pair_sketches(g, 0, 2, 8, 2, make_hash_seeds(2, 3))[2]
        with pytest.raises(ValueError, match="incompatible"):
            score_approx(g, 0, 2, sketches)


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
                hits += a == 0
        # endpoint 0 carries weight 0.25 of 0.625 = 0.4 per unconditioned draw
        assert abs(hits / draws - 0.4) < 0.02

    def test_two_alive_always_the_pair(self):
        g = p3()
        z = g.merge(0, 1)
        tree = SamplingTree.build([(a, node_weight(g, a)) for a in g.alive_ids()])
        rng = random.Random(5)
        for a, b in sample_pairs(g, tree, 20, rng):
            assert {a, b} == {z, 2}

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
        for weights in ([(0, 1.0), (1, 0.0), (2, 0.0)],
                        [(0, 1e9), (1, 1.0), (2, 1.0)]):
            g = p3()
            tree = SamplingTree.build(weights)
            sums = list(tree._sums)
            for a, b in sample_pairs(g, tree, 2000, random.Random(0)):
                assert a != b
                assert g.is_alive(a) and g.is_alive(b)
            assert list(tree._sums) == sums

    def test_zero_weight_draws_read_only_the_tree(self):
        # the uniform fallback draws from the tree's bound vertices, so it
        # never lists or sorts the graph's alive ids
        class NoGraph:
            @property
            def nodes(self):
                raise AssertionError("graph read")

            def alive_ids(self):
                raise AssertionError("graph read")

        tree = SamplingTree.build([(a, 0.0) for a in range(5)])
        tree.delete(3)
        pairs = sample_pairs(NoGraph(), tree, 200, random.Random(9))
        assert all(a != b for a, b in pairs)
        assert {v for pair in pairs for v in pair} == {0, 1, 2, 4}
        tree = SamplingTree.build([(0, 1.0), (1, 0.0), (2, 0.0)])
        pairs = sample_pairs(NoGraph(), tree, 200, random.Random(9))
        assert {a for a, _ in pairs} == {0}
        assert {b for _, b in pairs} == {1, 2}

    def test_uniform_fallback_takes_few_index_draws(self, monkeypatch):
        # one edge plus n - 2 self-loop-only vertices: once the edge is
        # merged no node has mass, so every later draw is uniform, down to
        # two bound vertices and a partner that must differ from the first
        n = 8000
        g = SummaryGraph.from_edge_list([(0, 1)] + [(v, v) for v in range(2, n)])
        loop = Summarizer(g, SummarizerConfig(target_k=1, seed=3))

        class CountingRandom(random.Random):
            index_draws = 0

            def randrange(self, *args):
                CountingRandom.index_draws += 1
                return super().randrange(*args)

        calls = 0
        uniform_vertex = SamplingTree.uniform_vertex

        def counted(tree, rng, other_than=None):
            nonlocal calls
            calls += 1
            return uniform_vertex(tree, rng, other_than)

        monkeypatch.setattr(SamplingTree, "uniform_vertex", counted)
        loop.rng = CountingRandom(3)
        loop.run()
        assert g.alive_count == 1 and calls > 2 * n
        assert CountingRandom.index_draws <= 4 * calls

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
        g = p3()
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
        star = SummaryGraph.from_edge_list([(0, 1), (0, 2), (0, 3)])
        best = star.copy()
        z = best.merge(1, 2)
        best.merge(z, 3)
        assert re_brute(star, best) == pytest.approx(0.0, abs=1e-12)

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
            g = SummaryGraph.from_edge_list(edges)
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

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_live_ids_are_input_ids(self, mode):
        # ids are the dense indices of the labels, and a merge keeps one of
        # its two ids, so no live or logged id is ever made up
        rng = random.Random(27)
        edges = [(3 * u + 5, 3 * v + 5)
                 for u, v in constant_degree_edges(120, 8, rng)]
        g = SummaryGraph.from_edge_list(edges)
        inputs = set(g.alive_ids())
        assert inputs == set(range(g.original_vertex_count))
        assert set(g.labels) == {u for edge in edges for u in edge}
        summarize(g, SummarizerConfig(target_k=1, seed=5, score_mode=mode,
                                      sketch_width=2))
        assert set(g.alive_ids()) <= inputs
        assert len(g.merge_log) == 2 * (len(inputs) - 1)
        assert set(g.merge_log) <= inputs

    def test_step_merges_first_encountered_argmax(self):
        rng = random.Random(88)
        g = SummaryGraph.from_edge_list(gnp_edges(25, 0.25, rng))
        driver = Summarizer(g, SummarizerConfig(target_k=20, seed=14))
        merged = driver.step()
        candidates = driver.last_candidates
        assert candidates and driver.cfg.score_mode == "exact"
        winner = max(candidates, key=lambda c: c.score)
        first_best = next(c for c in candidates if c.score == winner.score)
        assert merged == first_best.a
        assert g.is_alive(first_best.a)
        assert not g.is_alive(first_best.b)

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
                assert abs(l1_mass(sketch) - l1_mass(fresh)) < 1e-9
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
        # Reference: a tree driven by delete(b), update_weight(a) and one
        # update_weight per neighbor of a, with node_weight's values.
        rng = random.Random(41)
        g = SummaryGraph.from_edge_list(constant_degree_edges(160, 36, rng))
        loop = Summarizer(g, SummarizerConfig(target_k=20, seed=8, score_mode=mode,
                                              sketch_width=16))
        reference = SamplingTree.build([(a, node_weight(g, a)) for a in g.alive_ids()])
        while g.alive_count > 20:
            a = loop.step()
            best = max(loop.last_candidates, key=lambda c: c.score)
            assert a == best.a
            reference.delete(best.b)
            reference.update_weight(a, node_weight(g, a))
            for x in g.adj[a]:
                reference.update_weight(x, node_weight(g, x))
            assert loop.tree._sums == reference._sums
            assert loop.tree._bound == reference._bound
            for x in g.alive_ids():
                assert loop.tree.weight_of(x) == node_weight(g, x)

    # Merged pairs, as labels, recorded when the merged node began keeping
    # a's id and leaf, with validate() and re_closed == re_brute checked
    # after every step; the loop must keep merging the same pairs. Width 2
    # puts the sketch threshold at 4, so about a third of the sketch-mode
    # candidates are sketch-scored; exact mode ignores the width.
    GOLDEN = [
        (lambda: gnp_edges(36, 0.2, random.Random(61)), 9, "exact", 71,
         [(9, 31), (22, 4), (15, 17), (3, 10), (24, 22), (26, 27), (21, 9),
          (8, 0), (34, 5), (25, 14), (34, 1), (16, 2), (28, 19), (34, 28),
          (32, 8), (24, 21), (13, 12), (18, 30), (26, 7), (29, 23), (34, 18),
          (16, 29), (34, 16), (20, 13), (15, 6), (25, 3), (26, 11)]),
        (lambda: gnp_edges(36, 0.2, random.Random(61)), 9, "sketch", 72,
         [(10, 17), (25, 12), (15, 10), (25, 21), (18, 2), (4, 23), (29, 20),
          (9, 31), (5, 33), (0, 29), (11, 4), (16, 25), (6, 32), (8, 13),
          (34, 27), (28, 8), (7, 18), (34, 3), (26, 19), (15, 35), (1, 24),
          (30, 7), (22, 9), (15, 14), (0, 16), (6, 30), (26, 22)]),
        (lambda: constant_degree_edges(48, 8, random.Random(62)), 12, "exact", 73,
         [(27, 28), (14, 3), (29, 30), (42, 5), (26, 47), (0, 4), (42, 9),
          (22, 40), (37, 34), (37, 23), (42, 44), (41, 35), (18, 0), (14, 24),
          (7, 8), (25, 17), (2, 7), (20, 2), (39, 16), (43, 37), (25, 38),
          (12, 13), (18, 42), (43, 29), (14, 21), (46, 27), (32, 26), (41, 45),
          (19, 32), (12, 18), (25, 11), (6, 15), (19, 14), (12, 10), (19, 12),
          (6, 43)]),
        (lambda: constant_degree_edges(48, 8, random.Random(62)), 12, "sketch", 74,
         [(42, 41), (25, 36), (35, 42), (26, 15), (6, 44), (23, 32), (19, 35),
          (6, 18), (8, 10), (40, 19), (26, 3), (20, 1), (33, 43), (27, 6),
          (4, 34), (4, 25), (31, 16), (27, 12), (21, 17), (29, 22), (21, 31),
          (30, 14), (39, 38), (45, 27), (7, 4), (24, 29), (13, 21), (24, 11),
          (37, 5), (33, 23), (7, 40), (28, 9), (24, 37), (45, 26), (0, 39),
          (47, 2)]),
    ]

    # By seed, float.hex of the final re_closed and of the fsum of the
    # merged pairs' scores, recorded before ids became dense indices.
    GOLDEN_FLOATS = {
        71: ("0x1.5abfdee6a8992p+8", "-0x1.5abfdee6a8992p+8"),
        72: ("0x1.6473673673674p+8", "0x1.627b80d78ea08p+10"),
        73: ("0x1.f33a488164f32p+8", "-0x1.f33a488164f33p+8"),
        74: ("0x1.148a3d70a3d71p+9", "0x1.0228623e5632fp+11"),
    }

    @pytest.mark.parametrize("make_edges, k, mode, seed, expected", GOLDEN)
    def test_golden_merge_sequence(self, make_edges, k, mode, seed, expected):
        g = SummaryGraph.from_edge_list(make_edges())
        loop = Summarizer(g, SummarizerConfig(target_k=k, score_mode=mode,
                                              sketch_width=2, seed=seed))
        merged = []
        scores = []
        while g.alive_count > k:
            loop.step()
            best = max(loop.last_candidates, key=lambda c: c.score)
            merged.append((g.labels[best.a], g.labels[best.b]))
            scores.append(best.score)
        assert merged == expected
        assert (float.hex(re_closed(g)), float.hex(math.fsum(scores))) \
            == self.GOLDEN_FLOATS[seed]

    def test_concurrent_scoring_matches_serial(self):
        rng = random.Random(3)
        g = SummaryGraph.from_edge_list(gnp_edges(30, 0.2, rng))
        alive = list(g.alive_ids())
        pairs = [(a, b) for i, a in enumerate(alive) for b in alive[i + 1:]]
        serial = [score_exact(g, a, b) for a, b in pairs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda ab: score_exact(g, *ab), pairs))
        assert parallel == serial
