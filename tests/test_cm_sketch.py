import math
import random

import numpy as np
import pytest

from conftest import (exact_dot, l1_mass, scaled_vector, sketch_of,
                      sparse_int_vector)
from graphsumm import CountMinSketch, SummaryGraph, make_hash_seeds
from graphsumm.summarizer import build_sketches

SEEDS2 = make_hash_seeds(2, 99)


class TestConstruction:
    def test_zeroed_cells(self):
        sk = CountMinSketch(50, 2, SEEDS2)
        assert sk.cells.shape == (2, 50)
        assert not sk.cells.any()
        assert l1_mass(sk) == 0.0

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            CountMinSketch(0, 2, SEEDS2)
        with pytest.raises(ValueError):
            CountMinSketch(50, 0, ())
        with pytest.raises(ValueError):
            CountMinSketch(50, 3, SEEDS2)  # seed count mismatch

    def test_degenerate_single_cell(self):
        seeds = make_hash_seeds(1, 5)
        sa = sketch_of({1: 3.0, 9: 4.0}, 1, 1, seeds)
        sb = sketch_of({2: 2.0}, 1, 1, seeds)
        assert sa.inner_product_estimate(sb) == (3.0 + 4.0) * 2.0

    def test_shared_seeds_shared_buckets(self):
        one = sketch_of({7: 1.0}, 50, 2, SEEDS2)
        two = sketch_of({7: 1.0}, 50, 2, SEEDS2)
        assert np.array_equal(one.cells, two.cells)


class TestUpdate:
    def test_inverse_updates_cancel(self):
        sk = CountMinSketch(16, 2, SEEDS2)
        sk.update(3, 1.0)
        sk.update(3, -1.0)
        assert not sk.cells.any()
        assert l1_mass(sk) == 0.0

    def test_row_sums_track_total_mass(self):
        sk = sketch_of({1: 2.0, 5: 3.5, 11: 1.0}, 8, 2, SEEDS2)
        np.testing.assert_allclose(sk.cells.sum(axis=1), 6.5, rtol=1e-9)
        assert l1_mass(sk) == pytest.approx(6.5)

    def test_merge_driven_update_pattern(self):
        # neighbor's view when x,y collapse into z: drop both scaled
        # coordinates, add the combined one at the merged size
        sk = sketch_of({10: 3.0 / math.sqrt(2), 11: 1.0 / math.sqrt(3)}, 32, 2, SEEDS2)
        sk.update(10, -3.0 / math.sqrt(2))
        sk.update(11, -1.0 / math.sqrt(3))
        sk.update(12, 4.0 / math.sqrt(5))
        np.testing.assert_allclose(sk.cells.sum(axis=1), 4.0 / math.sqrt(5), rtol=1e-9)

    def test_path_center_sketch(self):
        # a sketch holds the node's scaled vector, and only the ids asked
        # for get one
        g = SummaryGraph.from_edge_list([(0, 1), (1, 2)])
        sketches = build_sketches(g, [1], 1, 1, make_hash_seeds(1, 99))
        assert set(sketches) == {1}
        np.testing.assert_allclose(sketches[1].cells.sum(axis=1), 2.0, rtol=1e-12)

    def test_build_matches_per_coordinate_updates(self):
        # huge sparse labels, hashed by the build itself, and merged blocks,
        # whose scaled coordinates cross_e / sqrt(size) are not integers;
        # each built sketch equals one update per coordinate, the other
        # chosen ids' coordinates left out, on a fresh sketch, bit for bit
        base = 1 << 40
        rng = random.Random(21)
        edges = [(base + 7 * u, base + 7 * v) for u in range(40)
                 for v in range(u + 1, 40) if rng.random() < 0.45]
        g = SummaryGraph.from_edge_list(edges)
        alive = sorted(g.alive_ids())
        z = g.merge(alive[0], alive[1])
        z = g.merge(z, alive[2])
        g.merge(alive[3], alive[4])
        g.merge(z, alive[5])
        chosen = [a for a in g.alive_ids() if len(g.adj[a]) > 16]
        assert 0 < len(chosen) < g.alive_count
        assert any(x in chosen for a in chosen for x in g.adj[a])
        sketches = build_sketches(g, chosen, 8, 2, SEEDS2)
        assert list(sketches) == chosen
        for a in chosen:
            reference = sketch_of(scaled_vector(g, a, chosen), 8, 2, SEEDS2)
            assert np.array_equal(sketches[a].cells, reference.cells)
            assert l1_mass(sketches[a]) == l1_mass(reference)


class TestInnerProduct:
    def test_zero_vector(self):
        sa = sketch_of({1: 3.0, 2: 1.0}, 50, 2, SEEDS2)
        sb = CountMinSketch(50, 2, SEEDS2)
        assert sa.inner_product_estimate(sb) == 0.0

    def test_single_shared_coordinate(self):
        sa = sketch_of({7: 3.0}, 50, 2, SEEDS2)
        sb = sketch_of({7: 2.0}, 50, 2, SEEDS2)
        assert sa.inner_product_estimate(sb) == 6.0

    def test_incompatible(self):
        sa = CountMinSketch(50, 2, SEEDS2)
        with pytest.raises(ValueError, match="incompatible"):
            sa.inner_product_estimate(CountMinSketch(49, 2, SEEDS2))
        with pytest.raises(ValueError, match="incompatible"):
            sa.inner_product_estimate(CountMinSketch(50, 2, make_hash_seeds(2, 123)))

    def test_never_underestimates(self):
        rng = random.Random(8)
        seeds = make_hash_seeds(2, 77)
        for _ in range(1000):
            va = sparse_int_vector(rng, 500, 3, 8)
            vb = sparse_int_vector(rng, 500, 3, 8)
            est = sketch_of(va, 50, 2, seeds).inner_product_estimate(
                sketch_of(vb, 50, 2, seeds))
            assert est >= exact_dot(va, vb)

    def test_error_bound_frequency(self):
        # overshoot beyond |A|_1 |B|_1 / w in at most delta + 3 SE of trials;
        # the failure probability is over the hash draw, so redraw seeds
        rng = random.Random(31)
        seed_rng = random.Random(77)
        trials, failures = 1000, 0
        for _ in range(trials):
            seeds = make_hash_seeds(2, seed_rng.getrandbits(63))
            va = sparse_int_vector(rng, 500, 3, 8)
            vb = sparse_int_vector(rng, 500, 3, 8)
            est = sketch_of(va, 50, 2, seeds).inner_product_estimate(
                sketch_of(vb, 50, 2, seeds))
            bound = sum(va.values()) * sum(vb.values()) / 50.0
            if est > exact_dot(va, vb) + bound:
                failures += 1
        delta = math.exp(-2)
        limit = delta + 3 * math.sqrt(delta * (1 - delta) / trials)
        assert failures / trials <= limit

    def test_deterministic_across_runs(self):
        def run():
            rng = random.Random(4)
            seeds = make_hash_seeds(2, 55)
            va = sparse_int_vector(rng, 300, 5, 10)
            vb = sparse_int_vector(rng, 300, 5, 10)
            return sketch_of(va, 50, 2, seeds).inner_product_estimate(
                sketch_of(vb, 50, 2, seeds))

        assert run() == run()


class TestCombined:
    def test_cellwise_addition_matches_summed_vector(self):
        rng = random.Random(6)
        seeds = make_hash_seeds(2, 3)
        va = sparse_int_vector(rng, 200, 4, 9)
        vb = sparse_int_vector(rng, 200, 4, 9)
        summed = dict(va)
        for c, v in vb.items():
            summed[c] = summed.get(c, 0.0) + v
        sa = sketch_of(va, 32, 2, seeds)
        sb = sketch_of(vb, 32, 2, seeds)
        merged = CountMinSketch.combined(sa, sb)
        np.testing.assert_allclose(merged.cells,
                                   sketch_of(summed, 32, 2, seeds).cells,
                                   rtol=1e-12)
        assert l1_mass(merged) == pytest.approx(sum(summed.values()))

    def test_combined_requires_compatibility(self):
        with pytest.raises(ValueError, match="incompatible"):
            CountMinSketch.combined(CountMinSketch(8, 2, SEEDS2),
                                    CountMinSketch(16, 2, SEEDS2))
