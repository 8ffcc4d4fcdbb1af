"""Weighted sampling over a changing population in O(log n) per operation.

The tree is a complete binary tree stored in an array: node i has children
2i and 2i+1, leaves occupy the last level (the leaf count is padded to a
power of two with permanently-zero slots). Each internal node holds exactly
the float sum of its two children: an update rewrites the leaf and then
recomputes every ancestor from its two children instead of adding a delta,
so the sums depend only on the current leaf weights, never on the history of
updates. There is no drift to repair, and zeroing a leaf and restoring it
leaves every sum bit-identical.

Drawing a leaf with probability proportional to its weight is a single
root-to-leaf descent steered by a uniform number in [0, total). Rounding in
the running subtraction of left-subtree weights can still carry the number
onto a right subtree whose sum is zero; the descent then takes the left
sibling, so every draw ends on a bound leaf with positive weight.
"""

from __future__ import annotations

import heapq
from typing import Iterable


class SamplingTree:
    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        padded = 1
        while padded < capacity:
            padded <<= 1
        self._padded = padded
        self._sums = [0.0] * (2 * padded)
        self._leaf_vertex: list[int | None] = [None] * padded
        self._leaf_of: dict[int, int] = {}
        self._free_slots: list[int] = list(range(capacity))
        # Nodes visited by every draw and update (one root-to-leaf path),
        # for cost assertions.
        self.last_op_visits = padded.bit_length()

    @classmethod
    def build(cls, weights: Iterable[tuple[int, float]]) -> "SamplingTree":
        """Populate a fresh tree from (vertex id, weight) pairs, in order."""
        items = list(weights)
        if not items:
            raise ValueError("cannot build an empty sampling tree")
        tree = cls(len(items))
        sums = tree._sums
        padded = tree._padded
        for slot, (vertex, weight) in enumerate(items):
            if weight < 0:
                raise ValueError(f"negative weight {weight} for vertex {vertex}")
            if vertex in tree._leaf_of:
                raise ValueError(f"duplicate vertex {vertex}")
            sums[padded + slot] = float(weight)
            tree._leaf_vertex[slot] = vertex
            tree._leaf_of[vertex] = slot
        tree._free_slots = []
        for idx in range(padded - 1, 0, -1):
            sums[idx] = sums[2 * idx] + sums[2 * idx + 1]
        return tree

    # ------------------------------------------------------------------

    @property
    def total_weight(self) -> float:
        return self._sums[1]

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._leaf_of

    def __len__(self) -> int:
        return len(self._leaf_of)

    def vertices(self):
        return self._leaf_of.keys()

    def weight_of(self, vertex: int) -> float:
        return self._sums[self._padded + self._leaf_of[vertex]]

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
        padded = self._padded
        idx = 1
        while idx < padded:
            idx <<= 1
            left_weight = sums[idx]
            # r can reach a massless right subtree only through rounding in
            # "r -= left_weight"; the left sibling then holds all the mass
            if r >= left_weight and sums[idx | 1] > 0.0:
                r -= left_weight
                idx |= 1
        return self._leaf_vertex[idx - padded]

    def update_weight(self, vertex: int, new_weight: float) -> None:
        slot = self._leaf_of.get(vertex)
        if slot is None:
            raise KeyError(f"vertex {vertex} has no leaf")
        self._set_slot(slot, new_weight)

    def delete(self, vertex: int) -> None:
        """Zero the leaf and release its slot for reuse by insert()."""
        slot = self._leaf_of.pop(vertex, None)
        if slot is None:
            raise KeyError(f"vertex {vertex} has no leaf")
        self._set_slot(slot, 0.0)
        self._leaf_vertex[slot] = None
        heapq.heappush(self._free_slots, slot)

    def insert(self, vertex: int, weight: float) -> None:
        """Bind the lowest-index free slot to a new vertex."""
        if vertex in self._leaf_of:
            raise ValueError(f"vertex {vertex} already present")
        if not self._free_slots:
            raise ValueError("tree full")
        slot = heapq.heappop(self._free_slots)
        self._leaf_vertex[slot] = vertex
        self._leaf_of[vertex] = slot
        self._set_slot(slot, weight)

    def _set_slot(self, slot: int, new_weight: float) -> None:
        if new_weight < 0:
            raise ValueError(f"negative weight {new_weight}")
        sums = self._sums
        idx = self._padded + slot
        sums[idx] = weight = new_weight
        while idx > 1:
            weight += sums[idx ^ 1]
            idx >>= 1
            sums[idx] = weight

    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert that every internal node is exactly the sum of its children."""
        sums = self._sums
        for idx in range(1, self._padded):
            child_sum = sums[2 * idx] + sums[2 * idx + 1]
            assert sums[idx] == child_sum, \
                f"parent-sum mismatch at node {idx}: {sums[idx]} vs {child_sum}"
        for slot in range(self._padded):
            assert sums[self._padded + slot] >= 0.0, f"negative leaf at slot {slot}"
            if slot >= self.capacity:
                assert sums[self._padded + slot] == 0.0, "padding slot has weight"
