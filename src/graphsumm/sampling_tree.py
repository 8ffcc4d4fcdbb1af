"""Weighted sampling over a changing population in O(log n) per operation.

The tree is a complete binary tree stored in one contiguous float64 numpy
array: node i has children 2i and 2i+1, leaves occupy the last level (the
leaf count is padded to a power of two with permanently-zero slots). `_sums`
is a memoryview of that array, so the scalar paths (the draw's descent, a
single leaf's climb, `weight_of`, `total_weight`) read and write plain Python
floats at list-like cost, while a whole-tree rebuild runs one numpy addition
per level, over (left children, right children, parents) views of the array
made once with the tree. Each internal node holds exactly the float sum of
its two children: every change of leaves (build, update, insert, delete, a
merge's batch) goes through one write, which checks the weights, rewrites
the leaves and then recomputes every ancestor from its two children instead
of adding a delta, so the sums depend only on the current leaf weights, never
on the history of updates or on whether a write climbed or rebuilt (each
parent is left + right in IEEE double either way). There is no drift to repair, and
zeroing a leaf and restoring it leaves every sum bit-identical.

A vertex is its own leaf slot: the tree serves vertices 0..capacity-1
(the dense ids of ``SummaryGraph``), so it keeps no id map, only one bound
flag per slot. Slot order is therefore id order.

Drawing a leaf with probability proportional to its weight is a single
root-to-leaf descent steered by a uniform number in [0, total), one step for
each of the log2 P levels below the root (P padded leaves). Rounding in
the running subtraction of left-subtree weights can still carry the number
onto a right subtree whose sum is zero; the descent then takes the left
sibling, so every draw ends on a bound leaf with positive weight.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import itemgetter
from typing import Collection, Iterable, Sequence

import numpy as np

# Bounds the cost of _write's whole-tree rebuild against its climbs
# (see its docstring). On `sparse-exact` (Python 3.11, a shared 2-core VM),
# merge_leaves time over SummaryGraph.merge time read (medians of 6 runs)
# 1.43, 1.24, 1.14 and 1.18 with the factor at 32, 64, 128 and 256, against
# 2.13 with climbs only; on `dense-exact` 0.34-0.35 at all four. At 2^17
# leaves a rebuild took 88 us and a climb of 57 leaves (128's split) 104 us.
# 128 would save about 2% of a sparse merge, under what the benchmark
# resolves; the tree tests pin 64's split between the two paths.
_REBUILD_FACTOR = 64


class SamplingTree:
    """Leaves indexed by vertex: vertex v's leaf is slot v, so a tree of
    capacity c holds vertices 0..c-1. A slot is bound while its vertex is
    in the tree; an unbound slot weighs 0.0."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        padded = 1
        while padded < capacity:
            padded <<= 1
        self._padded = padded
        array = np.zeros(2 * padded)
        self._sums = memoryview(array)
        # _rebuild's (left children, right children, parents) views, one
        # per level from the bottom: nodes lo..2lo-1, children 2lo..4lo-1
        self._level_views = []
        lo = padded >> 1
        while lo:
            self._level_views.append((array[2 * lo:4 * lo:2],
                                      array[2 * lo + 1:4 * lo:2],
                                      array[lo:2 * lo]))
            lo >>= 1
        # one step per level of a root-to-leaf descent
        self._descent = range(len(self._level_views))
        # 1 at each bound slot; padding slots are never bound
        self._bound = bytearray(padded)
        self._bound_count = 0
        # Nodes visited by every draw and update (one root-to-leaf path),
        # for cost assertions.
        self.last_op_visits = padded.bit_length()

    @classmethod
    def build(cls, weights: Iterable[tuple[int, float]]) -> "SamplingTree":
        """A fresh tree of capacity max vertex + 1 from (vertex, weight)
        pairs, each vertex bound at its own slot; every other slot is
        unbound."""
        items = list(weights)
        if not items:
            raise ValueError("cannot build an empty sampling tree")
        vertices = [vertex for vertex, _ in items]
        lowest = min(vertices)
        if lowest < 0:
            raise ValueError(f"negative vertex {lowest}")
        tree = cls(max(vertices) + 1)
        bound = tree._bound
        for vertex in vertices:
            if bound[vertex]:
                raise ValueError(f"duplicate vertex {vertex}")
            bound[vertex] = 1
        tree._bound_count = len(items)
        tree._write(vertices, [weight for _, weight in items])
        return tree

    # ------------------------------------------------------------------

    @property
    def total_weight(self) -> float:
        return self._sums[1]

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < self.capacity and self._bound[vertex] == 1

    def __len__(self) -> int:
        return self._bound_count

    def vertices(self) -> list[int]:
        """The bound vertices, in slot order."""
        return list(compress(range(self.capacity), self._bound))

    def weight_of(self, vertex: int) -> float:
        if vertex not in self:
            raise KeyError(f"vertex {vertex} has no leaf")
        return self._sums[self._padded + vertex]

    # ------------------------------------------------------------------

    def get_leaf(self, r: float) -> int:
        """Return the vertex whose cumulative weight range contains r.

        Requires 0 <= r < total_weight; a uniform r selects each leaf with
        probability weight/total. Ties at range boundaries go to the right
        neighbor (strict "r < left subtree weight" test), and a right subtree
        without mass is never entered, so only bound leaves with positive
        weight are returned.
        """
        sums = self._sums
        total = sums[1]
        if total <= 0.0:
            raise ValueError("empty distribution")
        if not 0.0 <= r < total:
            raise ValueError(f"r={r} outside [0, {total})")
        idx = 1
        for _ in self._descent:
            idx += idx
            left_weight = sums[idx]
            # r can reach a massless right subtree only through rounding in
            # "r -= left_weight"; the left sibling then holds all the mass
            if r >= left_weight and sums[idx + 1] > 0.0:
                r -= left_weight
                idx += 1
        return idx - self._padded

    def update_weight(self, vertex: int, new_weight: float) -> None:
        if vertex not in self:
            raise KeyError(f"vertex {vertex} has no leaf")
        self._write((vertex,), (new_weight,))

    def delete(self, vertex: int) -> None:
        """Zero the leaf and unbind it; insert() can bind it again."""
        if vertex not in self:
            raise KeyError(f"vertex {vertex} has no leaf")
        self._write((vertex,), (0.0,))
        self._bound[vertex] = 0
        self._bound_count -= 1

    def insert(self, vertex: int, weight: float) -> None:
        """Bind vertex's own slot, which must be unbound, with weight."""
        if vertex in self:
            raise ValueError(f"vertex {vertex} already present")
        if not 0 <= vertex < self.capacity:
            raise ValueError(f"vertex {vertex} outside the tree's "
                             f"{self.capacity} slots")
        self._write((vertex,), (weight,))
        self._bound[vertex] = 1
        self._bound_count += 1

    def merge_leaves(self, a: int, b: int, weight: float,
                     others: Collection[int], weights: list[float]) -> None:
        """Fold b's leaf into a's and reweigh other leaves, in one batch.

        a's leaf takes the given weight, b's leaf is zeroed and unbound,
        and the leaf of each vertex in others, all bound and none of them a
        or b, takes the matching entry of weights (one per vertex). A bad
        batch raises before anything changes.
        """
        if a == b or a not in self or b not in self:
            raise KeyError(f"vertices {a} and {b} need distinct leaves")
        bound = self._bound
        try:
            # a negative id would index the flags from the end; a and b,
            # both bound, make the gather a tuple for any number of others
            unbound = (min(others, default=0) < 0
                       or 0 in itemgetter(a, b, *others)(bound))
        except IndexError:
            unbound = True
        if unbound:
            raise KeyError("others name a vertex without a leaf")
        if a in others or b in others:
            raise ValueError(f"others must not name {a} or {b}")
        if len(others) != len(weights):
            raise ValueError(f"{len(others)} others but {len(weights)} weights")
        self._write([a, b, *others], [weight, 0.0, *weights])
        bound[b] = 0
        self._bound_count -= 1

    def _write(self, slots: Sequence[int], weights: Sequence[float]) -> None:
        """Set the leaf of each slot (valid, none twice) to the matching
        weight and recompute the ancestors. Raises ValueError before any
        write unless every weight is finite and non-negative.

        The ancestors are recomputed one of two ways, chosen by the m
        written leaves against the P padded leaves:
        - climb, when m * (log2 P + 1) * _REBUILD_FACTOR < P: each changed
          ancestor is recomputed once from its two children, O(m log P);
        - rebuild, otherwise: every internal node, bottom-up, one numpy
          addition per level, O(P), which the rule bounds by
          O(m log P) * _REBUILD_FACTOR.
        Each parent is left + right in IEEE double on both paths, so every
        sum is bit for bit the one a leaf-by-leaf update would give.
        """
        # a NaN or infinite weight makes the sum non-finite, and with
        # neither present min is exact
        if not (math.isfinite(sum(weights)) and min(weights, default=0.0) >= 0.0):
            raise ValueError("negative weight, NaN or infinity")
        sums = self._sums
        padded = self._padded
        for slot, weight in zip(slots, weights):
            sums[padded + slot] = weight
        if len(slots) * padded.bit_length() * _REBUILD_FACTOR >= padded:
            self._rebuild()
            return
        # Walked in slot order, a leaf stops below its lowest common
        # ancestor with the next changed leaf: that leaf's walk passes the
        # shared ancestors later, with all of their changed leaves written,
        # so each ancestor is computed once.
        changed = sorted(slots)
        heights = [(slot ^ after).bit_length() - 1
                   for slot, after in zip(changed, changed[1:])]
        heights.append(padded.bit_length() - 1)
        for slot, height in zip(changed, heights):
            idx = padded + slot
            total = sums[idx]
            for _ in range(height):
                total += sums[idx ^ 1]
                idx >>= 1
                sums[idx] = total

    def _rebuild(self) -> None:
        """Recompute every internal node from the leaves up, one numpy
        addition per level over views made once in __init__."""
        for left, right, parents in self._level_views:
            np.add(left, right, out=parents)

    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert that every internal node is exactly the sum of its
        children, that no leaf is negative and that every unbound slot
        (freed or padding) has weight 0.0."""
        sums = self._sums
        for idx in range(1, self._padded):
            child_sum = sums[2 * idx] + sums[2 * idx + 1]
            assert sums[idx] == child_sum, \
                f"parent-sum mismatch at node {idx}: {sums[idx]} vs {child_sum}"
        for slot, bound in enumerate(self._bound):
            leaf = sums[self._padded + slot]
            assert leaf >= 0.0, f"negative leaf at slot {slot}"
            if not bound:
                assert leaf == 0.0, f"unbound slot {slot} has weight {leaf}"
        assert self._bound_count == sum(self._bound), "bound count drifted"
