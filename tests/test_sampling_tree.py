import math
import random

import pytest

from conftest import linear_scan_leaf
from graphsumm import SamplingTree


def small_tree():
    return SamplingTree.build([(1, 2.0), (2, 1.0), (3, 1.0)])


class TestBuild:
    def test_three_leaves(self):
        t = small_tree()
        assert t.total_weight == 4.0
        # leaves v1, v2 share the left subtree of the root
        assert t._sums[2] == 3.0

    def test_single_leaf(self):
        t = SamplingTree.build([(1, 5.0)])
        assert t.total_weight == 5.0
        assert t.get_leaf(4.9) == 1

    def test_zero_mass(self):
        t = SamplingTree.build([(1, 0.0), (2, 0.0)])
        assert t.total_weight == 0.0
        with pytest.raises(ValueError, match="empty distribution"):
            t.get_leaf(0.0)

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="negative weight"):
            SamplingTree.build([(1, -1.0)])
        with pytest.raises(ValueError):
            SamplingTree.build([])


class TestGetLeaf:
    def test_ranges(self):
        t = small_tree()
        assert t.get_leaf(2.5) == 2      # [0,2) v1, [2,3) v2, [3,4) v3
        assert t.get_leaf(0.0) == 1
        assert t.get_leaf(3.999) == 3

    def test_out_of_range(self):
        t = small_tree()
        with pytest.raises(ValueError):
            t.get_leaf(4.0)
        with pytest.raises(ValueError):
            t.get_leaf(-0.1)

    def test_rounding_overshoot_lands_on_bound_leaf(self):
        # r - w0 rounds up to exactly w2, so the plain descent would turn
        # right once more, onto the massless padding slot
        t = SamplingTree.build([(0, 0.0013619360151573261), (1, 0.0),
                                (2, 0.01826239002789079)])
        assert t.get_leaf(math.nextafter(t.total_weight, 0.0)) == 2


class TestUpdate:
    def test_update_changes_root(self):
        t = small_tree()
        t.update_weight(2, 5.0)
        assert t.total_weight == 8.0

    def test_identity_update(self):
        t = small_tree()
        sums_before = list(t._sums)
        t.update_weight(2, 1.0)
        assert t._sums == sums_before

    def test_zero_weight_collapses_range(self):
        t = small_tree()
        t.update_weight(1, 0.0)
        assert t.get_leaf(0.5) == 2

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            small_tree().update_weight(9, 1.0)


class TestDeleteInsert:
    def test_delete(self):
        t = small_tree()
        t.delete(3)
        assert t.total_weight == 3.0
        assert 3 not in t

    def test_insert_reuses_slot(self):
        t = small_tree()
        t.delete(3)
        t.insert(4, 4.0)
        assert t.total_weight == 7.0
        assert t.get_leaf(6.9) == 4  # v4 occupies v3's slot, range [3, 7)

    def test_delete_reinsert_preserves_distribution(self):
        t = small_tree()
        reference = [t.get_leaf(r / 8) for r in range(32)]
        t.delete(2)
        t.insert(2, 1.0)
        assert [t.get_leaf(r / 8) for r in range(32)] == reference

    def test_tree_full(self):
        t = small_tree()
        with pytest.raises(ValueError, match="tree full"):
            t.insert(4, 1.0)
        t.delete(1)
        t.insert(4, 1.0)  # now there is a slot


class TestStatistics:
    def test_empirical_frequencies(self):
        t = small_tree()
        rng = random.Random(2024)
        counts = {1: 0, 2: 0, 3: 0}
        draws = 100_000
        for _ in range(draws):
            counts[t.get_leaf(rng.random() * t.total_weight)] += 1
        for vertex, expected in [(1, 0.5), (2, 0.25), (3, 0.25)]:
            assert abs(counts[vertex] / draws - expected) < 0.015


class TestProperties:
    def test_random_op_sequences_match_reference(self):
        rng = random.Random(7)
        for trial in range(25):
            size = rng.randint(2, 40)
            # integer weights keep every partial sum exact in float64, so
            # tree descent and prefix scan agree even at range boundaries
            weights = {v: float(rng.randint(0, 9)) for v in range(size)}
            tree = SamplingTree.build(sorted(weights.items()))
            slots = {v: i for i, v in enumerate(sorted(weights))}
            next_vertex = size
            for _ in range(rng.randint(5, 60)):
                op = rng.random()
                if op < 0.5 and weights:
                    v = rng.choice(sorted(weights))
                    weights[v] = float(rng.randint(0, 9))
                    tree.update_weight(v, weights[v])
                elif op < 0.75 and len(weights) > 1:
                    v = rng.choice(sorted(weights))
                    slots.pop(v)
                    del weights[v]
                    tree.delete(v)
                elif len(weights) < size:
                    v = next_vertex
                    next_vertex += 1
                    weights[v] = float(rng.randint(0, 9))
                    tree.insert(v, weights[v])
                    free = sorted(set(range(size)) - set(slots.values()))
                    slots[v] = free[0]  # insert reuses the lowest free slot
                tree.check_consistency()
                total = sum(weights.values())
                assert tree.total_weight == pytest.approx(total, abs=1e-9)
                if total > 0:
                    ordered = sorted(weights.items(), key=lambda kv: slots[kv[0]])
                    for _ in range(5):
                        r = float(rng.randint(0, int(total) - 1)) + rng.choice([0.0, 0.5])
                        if r >= total:
                            continue
                        assert tree.get_leaf(r) == linear_scan_leaf(ordered, r)

    def test_visit_bound(self):
        rng = random.Random(3)
        for size in (2, 3, 5, 17, 64, 100):
            tree = SamplingTree.build([(v, rng.random() + 0.1) for v in range(size)])
            bound = 2 * math.ceil(math.log2(size))
            for _ in range(50):
                tree.get_leaf(rng.random() * tree.total_weight)
                assert tree.last_op_visits <= bound
                tree.update_weight(rng.randrange(size), rng.random())
                assert tree.last_op_visits <= bound

    def test_parent_sums_exact_under_float_updates(self):
        rng = random.Random(5)
        size = 13
        tree = SamplingTree.build([(v, rng.random()) for v in range(size)])
        present = set(range(size))
        next_vertex = size
        for _ in range(2000):
            op = rng.random()
            weight = rng.random() * 10.0 ** rng.randint(-6, 6)
            if op < 0.6:
                tree.update_weight(rng.choice(sorted(present)), weight)
            elif op < 0.8 and len(present) > 1:
                v = rng.choice(sorted(present))
                present.discard(v)
                tree.delete(v)
            elif len(present) < size:
                tree.insert(next_vertex, weight)
                present.add(next_vertex)
                next_vertex += 1
            tree.check_consistency()
        # the sums depend only on the leaves, so a zeroed and restored leaf
        # leaves every sum bit-identical
        for v in sorted(present):
            before = list(tree._sums)
            weight = tree.weight_of(v)
            tree.update_weight(v, 0.0)
            tree.update_weight(v, weight)
            assert tree._sums == before
