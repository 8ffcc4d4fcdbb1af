import math
import random

import pytest

from conftest import linear_scan_leaf
from graphsumm import SamplingTree


def small_tree():
    return SamplingTree.build([(0, 2.0), (1, 1.0), (2, 1.0)])


class TestBuild:
    def test_three_leaves(self):
        t = small_tree()
        assert t.total_weight == 4.0
        # leaves v0, v1 share the left subtree of the root
        assert t._sums[2] == 3.0

    def test_vertex_is_its_slot(self):
        # unnamed slots are unbound and weigh nothing
        t = SamplingTree.build([(3, 1.0), (1, 2.0)])
        assert t.capacity == 4 and len(t) == 2
        assert t.vertices() == [1, 3]
        assert 0 not in t and 2 not in t and 4 not in t
        assert t.get_leaf(0.5) == 1 and t.get_leaf(2.5) == 3
        with pytest.raises(ValueError, match="duplicate vertex 1"):
            SamplingTree.build([(1, 1.0), (1, 2.0)])
        with pytest.raises(ValueError, match="negative vertex"):
            SamplingTree.build([(0, 1.0), (-1, 2.0)])
        t.check_consistency()

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
        assert t.get_leaf(2.5) == 1      # [0,2) v0, [2,3) v1, [3,4) v2
        assert t.get_leaf(0.0) == 0
        assert t.get_leaf(3.999) == 2

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
        t.update_weight(1, 5.0)
        assert t.total_weight == 8.0

    def test_identity_update(self):
        t = small_tree()
        sums_before = list(t._sums)
        t.update_weight(1, 1.0)
        assert list(t._sums) == sums_before

    def test_zero_weight_collapses_range(self):
        t = small_tree()
        t.update_weight(0, 0.0)
        assert t.get_leaf(0.5) == 1

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            small_tree().update_weight(9, 1.0)


class TestDeleteInsert:
    def test_delete(self):
        t = small_tree()
        t.delete(2)
        assert t.total_weight == 3.0
        assert 2 not in t

    def test_insert_reuses_slot(self):
        t = small_tree()
        t.delete(2)
        t.insert(2, 4.0)
        assert t.total_weight == 7.0
        assert t.get_leaf(6.9) == 2  # v2 is back in its own slot, range [3, 7)

    def test_delete_reinsert_preserves_distribution(self):
        t = small_tree()
        reference = [t.get_leaf(r / 8) for r in range(32)]
        t.delete(1)
        t.insert(1, 1.0)
        assert [t.get_leaf(r / 8) for r in range(32)] == reference

    def test_tree_full(self):
        # a vertex can only take its own slot: one beyond the capacity, or
        # one already bound, is refused
        t = small_tree()
        with pytest.raises(ValueError, match="outside the tree's 3 slots"):
            t.insert(3, 1.0)
        with pytest.raises(ValueError, match="already present"):
            t.insert(0, 1.0)
        t.delete(0)
        t.insert(0, 1.0)  # now its slot is free


class TestStatistics:
    def test_empirical_frequencies(self):
        t = small_tree()
        rng = random.Random(2024)
        counts = {0: 0, 1: 0, 2: 0}
        draws = 100_000
        for _ in range(draws):
            counts[t.get_leaf(rng.random() * t.total_weight)] += 1
        for vertex, expected in [(0, 0.5), (1, 0.25), (2, 0.25)]:
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
            for _ in range(rng.randint(5, 60)):
                op = rng.random()
                if op < 0.5 and weights:
                    v = rng.choice(sorted(weights))
                    weights[v] = float(rng.randint(0, 9))
                    tree.update_weight(v, weights[v])
                elif op < 0.75 and len(weights) > 1:
                    v = rng.choice(sorted(weights))
                    del weights[v]
                    tree.delete(v)
                elif len(weights) < size:
                    # a deleted vertex comes back to its own slot
                    v = min(set(range(size)) - set(weights))
                    weights[v] = float(rng.randint(0, 9))
                    tree.insert(v, weights[v])
                tree.check_consistency()
                assert tree.vertices() == sorted(weights)
                total = sum(weights.values())
                assert tree.total_weight == pytest.approx(total, abs=1e-9)
                if total > 0:
                    ordered = sorted(weights.items())  # slot order is id order
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
                v = min(set(range(size)) - present)
                tree.insert(v, weight)
                present.add(v)
            tree.check_consistency()
        # the sums depend only on the leaves, so a zeroed and restored leaf
        # leaves every sum bit-identical
        for v in sorted(present):
            before = list(tree._sums)
            weight = tree.weight_of(v)
            tree.update_weight(v, 0.0)
            tree.update_weight(v, weight)
            assert list(tree._sums) == before


class TestMergeLeaves:
    @staticmethod
    def merge_sequence(size, batch, seed):
        """Merges of two random vertices, the first kept, each reweighing
        `batch` other vertices (some to zero), as (a, b, weight,
        reweighed vertices, their weights)."""
        rng = random.Random(seed)
        alive = list(range(size))
        for _ in range(size // 2):
            a, b = rng.sample(alive, 2)
            alive.remove(b)
            others = rng.sample([x for x in alive if x != a],
                                min(batch, len(alive) - 1))
            weights = [rng.choice([0.0, rng.random()]) for _ in others]
            yield a, b, rng.random(), others, weights

    @pytest.mark.parametrize("batch", [0, 1, 6, 48, 140])
    def test_equals_per_leaf_updates(self, batch):
        size = 300
        rng = random.Random(batch)
        items = [(v, rng.random()) for v in range(size)]
        tree = SamplingTree.build(items)
        reference = SamplingTree.build(items)
        for a, b, weight, others, weights in self.merge_sequence(size, batch, batch):
            tree.merge_leaves(a, b, weight, others, weights)
            reference.delete(b)
            reference.update_weight(a, weight)
            for x, leaf_weight in zip(others, weights):
                reference.update_weight(x, leaf_weight)
            assert a in tree and b not in tree
            assert tree._sums == reference._sums
            assert tree._bound == reference._bound
            assert len(tree) == len(reference)
        tree.check_consistency()

    @staticmethod
    def merge_batches(size, batch, merges, seed):
        """Like merge_sequence, for trees too large to merge half-way:
        `merges` merges, each reweighing `batch` vertices to weights from
        1e-6 to 1e6, some zero."""
        rng = random.Random(seed)
        alive = list(range(size))
        for _ in range(merges):
            a, b = rng.sample(alive, 2)
            alive.remove(b)
            others = [x for x in rng.sample(alive, batch + 1) if x != a][:batch]
            weights = [rng.choice([0.0, 10.0 ** rng.uniform(-6, 6)])
                       for _ in others]
            yield a, b, 10.0 ** rng.uniform(-6, 6), others, weights

    @pytest.mark.parametrize("batch, rebuilds", [(0, False), (1, False), (6, False),
                                                 (200, True), (2000, True)])
    def test_both_paths_equal_per_leaf_updates_bit_for_bit(self, batch, rebuilds,
                                                           monkeypatch):
        # At 2^13 leaves a batch of up to 9 changed leaves climbs and a
        # larger one rebuilds; either must leave the per-leaf sums exactly
        size = 1 << 13
        rng = random.Random(batch)
        items = [(v, rng.choice([0.0, 10.0 ** rng.uniform(-6, 6)]))
                 for v in range(size)]
        tree = SamplingTree.build(items)
        reference = SamplingTree.build(items)
        rebuild = SamplingTree._rebuild
        calls = []
        monkeypatch.setattr(tree, "_rebuild", lambda: (calls.append(1), rebuild(tree)))
        merges = 0
        for a, b, weight, others, weights in self.merge_batches(size, batch, 30, batch):
            tree.merge_leaves(a, b, weight, others, weights)
            reference.delete(b)
            reference.update_weight(a, weight)
            for x, leaf_weight in zip(others, weights):
                reference.update_weight(x, leaf_weight)
            merges += 1
            assert bytes(tree._sums) == bytes(reference._sums)
            assert tree._bound == reference._bound
        assert len(calls) == (merges if rebuilds else 0)
        tree.check_consistency()

    @pytest.mark.parametrize("batch", [0, 1, 40])
    def test_small_batch_on_large_tree_never_rebuilds(self, batch, monkeypatch):
        # a rebuild costs O(padded leaves), so a batch this small against
        # 2^16 leaves must climb to keep a merge O(m log n)
        size = 1 << 16
        tree = SamplingTree.build((v, 1.0) for v in range(size))

        def rebuild():
            raise AssertionError("whole-tree rebuild for a small batch")

        monkeypatch.setattr(tree, "_rebuild", rebuild)
        for a, b, weight, others, weights in self.merge_batches(size, batch, 20, batch):
            tree.merge_leaves(a, b, weight, others, weights)
        tree.check_consistency()

    @pytest.mark.parametrize("others", [[1], [0], [2, 1]])
    def test_others_naming_a_or_b_rejected(self, others):
        # b in others used to put weight on b's freed, unbound slot, after
        # which get_leaf could return None
        tree = small_tree()
        sums = list(tree._sums)
        with pytest.raises(ValueError, match="must not name"):
            tree.merge_leaves(0, 1, 1.0, others, [5.0] * len(others))
        assert list(tree._sums) == sums and tree.vertices() == [0, 1, 2]
        assert len(tree) == 3
        tree.check_consistency()

    def test_consistency_check_sees_weight_on_unbound_slot(self):
        tree = small_tree()
        tree.delete(1)
        tree._write([1], [5.0])  # parents stay exact sums
        with pytest.raises(AssertionError, match="unbound slot 1"):
            tree.check_consistency()

    def test_bad_batches_leave_tree_unchanged(self):
        tree = small_tree()
        sums = list(tree._sums)
        with pytest.raises(KeyError):
            tree.merge_leaves(0, 9, 1.0, [], [])
        with pytest.raises(KeyError):
            tree.merge_leaves(0, 0, 1.0, [], [])
        with pytest.raises(ValueError, match="negative"):
            tree.merge_leaves(0, 1, -1.0, [], [])
        with pytest.raises(ValueError, match="negative"):
            tree.merge_leaves(0, 1, 1.0, [2], [-1.0])
        with pytest.raises(KeyError):
            tree.merge_leaves(0, 1, 1.0, [2, 9], [1.0, 1.0])  # 9 unbound
        with pytest.raises(KeyError):
            tree.merge_leaves(0, 1, 1.0, [2, 3], [1.0, 1.0])  # 3 is padding
        with pytest.raises(ValueError, match="1 others but 0 weights"):
            tree.merge_leaves(0, 1, 1.0, [2], [])
        with pytest.raises(ValueError, match="0 others but 1 weights"):
            tree.merge_leaves(0, 1, 1.0, [], [2.0])
        assert list(tree._sums) == sums and tree.vertices() == [0, 1, 2]
        assert len(tree) == 3
        tree.merge_leaves(0, 1, 0.5, [2], [2.0])
        assert tree.total_weight == 2.5 and tree.vertices() == [0, 2]
        tree.insert(1, 1.0)  # b's unbound slot
        assert 1 in tree and tree.total_weight == 3.5


class TestBadWrites:
    @pytest.mark.parametrize("size", [8, 1 << 14])
    def test_negative_other_rejected(self, size):
        # -1 would index the last slot's flag, bound at a power-of-two
        # capacity; 8 slots take the rebuild path, 2^14 the climb
        tree = SamplingTree.build((v, 1.0) for v in range(size))
        sums, bound = bytes(tree._sums), bytes(tree._bound)
        with pytest.raises(KeyError, match="without a leaf"):
            tree.merge_leaves(0, 1, 2.0, [-1], [5.0])
        assert bytes(tree._sums) == sums and bytes(tree._bound) == bound
        tree.check_consistency()

    @pytest.mark.parametrize("padded", [8, 1 << 14])
    def test_one_neighbour_batches(self, padded):
        # a batch of one neighbour without a leaf is rejected before any
        # write; one below the padded size leaves one padding slot, and 8
        # slots take the rebuild path, 2^14 the climb
        tree = SamplingTree.build((v, 1.0) for v in range(padded - 1))
        tree.merge_leaves(2, 3, 2.0, [4], [3.0])  # unbinds 3
        sums, bound = bytes(tree._sums), bytes(tree._bound)
        for bad in [padded, padded - 1, -1, 3]:
            with pytest.raises(KeyError, match="without a leaf"):
                tree.merge_leaves(0, 1, 2.0, [bad], [5.0])
            assert bytes(tree._sums) == sums and bytes(tree._bound) == bound
        tree.merge_leaves(0, 1, 2.0, [], [])
        assert tree.weight_of(0) == 2.0 and 1 not in tree
        tree.check_consistency()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected_at_every_entry(self, bad):
        with pytest.raises(ValueError, match="NaN or infinity"):
            SamplingTree.build([(0, 1.0), (1, bad)])
        tree = SamplingTree.build((v, 1.0) for v in range(4))
        tree.delete(3)
        before = bytes(tree._sums), bytes(tree._bound), len(tree)
        writes = [lambda: tree.update_weight(0, bad),
                  lambda: tree.insert(3, bad),
                  lambda: tree.merge_leaves(0, 1, bad, [2], [1.0]),
                  lambda: tree.merge_leaves(0, 1, 1.0, [2], [bad])]
        for write in writes:
            with pytest.raises(ValueError, match="NaN or infinity"):
                write()
            assert (bytes(tree._sums), bytes(tree._bound), len(tree)) == before
        tree.check_consistency()


class TestUniformVertex:
    def test_ignores_weights_and_skips_other_than(self):
        stats = pytest.importorskip("scipy.stats")
        tree = SamplingTree.build([(v, 10.0 ** v) for v in range(6)])
        tree.delete(2)
        rng = random.Random(4)
        counts = {v: 0 for v in (0, 1, 4, 5)}
        for _ in range(8000):
            counts[tree.uniform_vertex(rng, 3)] += 1
        assert stats.chisquare(list(counts.values())).pvalue > 0.001

    def test_uniform_after_merges_and_a_reinsert(self):
        stats = pytest.importorskip("scipy.stats")
        tree = SamplingTree.build([(v, float(v)) for v in range(12)])
        rng = random.Random(5)

        def assert_uniform(expected, other_than=None):
            counts = dict.fromkeys(expected, 0)
            for _ in range(400 * len(expected)):
                counts[tree.uniform_vertex(rng, other_than)] += 1
            assert stats.chisquare(list(counts.values())).pvalue > 0.001

        assert_uniform(range(12))
        tree.merge_leaves(0, 1, 1.0, [2], [2.0])
        tree.merge_leaves(4, 5, 1.0, [], [])
        assert_uniform([0, 2, 4, 6, 7, 8, 9, 10, 11], other_than=3)
        for b in (7, 8, 9, 10, 11):  # now at least half the list is stale
            tree.merge_leaves(6, b, 1.0, [], [])
        assert_uniform([0, 2, 3, 4, 6])
        # two re-inserted ids are drawn, each at the same rate
        tree.insert(9, 1.0)
        tree.insert(7, 1.0)
        assert_uniform([2, 3, 4, 6, 7, 9], other_than=0)
        tree.delete(9)
        tree.insert(9, 3.0)
        assert_uniform([0, 2, 3, 4, 6, 7, 9])

    def test_no_other_bound_vertex(self):
        tree = SamplingTree.build([(7, 0.0), (8, 0.0)])
        tree.delete(8)
        rng = random.Random(0)
        assert tree.uniform_vertex(rng) == 7
        with pytest.raises(ValueError, match="no other bound vertex"):
            tree.uniform_vertex(rng, 7)
        tree.delete(7)
        with pytest.raises(ValueError, match="no other bound vertex"):
            tree.uniform_vertex(rng)
