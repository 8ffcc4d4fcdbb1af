"""Count-min sketch over a supernode's scaled neighbor vector.

Coordinate i of the vector carries cross_e(a,i)/sqrt(size_n(i)); the sketch
supports signed coordinate updates (needed when merges move mass between
coordinates) and a row-minimum inner-product estimate. Because every cell is
a sum of final coordinate values and all final values are non-negative, each
row's dot product is the true inner product plus non-negative collision
terms, so the estimate never underestimates; one row overshoots the true
value by more than ||A||_1 * ||B||_1 / width with probability at most ~1/2
under pairwise-independent hashing, and taking the minimum over d rows
drives the failure probability down exponentially in d.

All sketches of one run must share the same hash seeds: that is what makes
cell-wise addition of two sketches equal the sketch of the summed vectors.
``SketchRows`` keeps such a family as rows of one (slots, depth, width)
array, placed by the caller's slot map, so one coordinate is patched in many
sketches by a single array write. It holds rows only for the ids the caller
builds them for: the merge loop keeps them for nodes whose degree exceeds
width * depth, the only ones whose pairs are scored with a sketch.
"""

from __future__ import annotations

import random

import numpy as np

_MERSENNE_61 = (1 << 61) - 1


def make_hash_seeds(depth: int, master_seed: int) -> tuple[tuple[int, int], ...]:
    """One (multiplier, offset) pair per row, derived from a master seed."""
    if depth < 1:
        raise ValueError("depth must be positive")
    rng = random.Random(master_seed)
    return tuple((rng.randrange(1, _MERSENNE_61), rng.randrange(_MERSENNE_61))
                 for _ in range(depth))


def _bucket(seed: tuple[int, int], coordinate: int, width: int) -> int:
    a, b = seed
    return ((a * coordinate + b) % _MERSENNE_61) % width


def _check_dimensions(width: int, depth: int, seeds) -> None:
    if width < 1 or depth < 1:
        raise ValueError(f"width and depth must be positive, got {width}, {depth}")
    if len(seeds) != depth:
        raise ValueError(f"need {depth} hash seeds, got {len(seeds)}")


class CountMinSketch:
    """One sketch with (depth, width) ``cells``. A standalone sketch owns its
    array; one held by a ``SketchRows`` views a row of that family's shared
    array."""

    __slots__ = ("width", "depth", "seeds", "cells")

    def __init__(self, width: int, depth: int, seeds: tuple[tuple[int, int], ...]):
        _check_dimensions(width, depth, seeds)
        self.width = width
        self.depth = depth
        self.seeds = seeds
        self.cells = np.zeros((depth, width))

    @property
    def l1_mass(self) -> float:
        """The vector's l1 mass: each coordinate has one cell in row 0."""
        return float(self.cells[0].sum())

    def bucket(self, row: int, coordinate: int) -> int:
        return _bucket(self.seeds[row], coordinate, self.width)

    def update(self, coordinate: int, delta: float) -> None:
        """Add delta to one coordinate (all rows). Caller guarantees the
        true value of every coordinate stays non-negative."""
        cells = self.cells
        width = self.width
        for row, seed in enumerate(self.seeds):
            cells[row, _bucket(seed, coordinate, width)] += delta

    def _check_compatible(self, other: "CountMinSketch") -> None:
        if (self.width != other.width or self.depth != other.depth
                or self.seeds != other.seeds):
            raise ValueError("incompatible sketches")

    def inner_product_estimate(self, other: "CountMinSketch",
                               exclude: tuple = ()) -> float:
        """Minimum over rows of the cell-wise dot product; never below the
        true inner product of the sketched vectors.

        ``exclude`` holds (coordinate, self_value, other_value) triples whose
        known contributions are removed from the respective sketches before
        the product is taken, as if those coordinates had never been inserted.
        The overestimate guarantee then applies to the reduced vectors.
        """
        self._check_compatible(other)
        best = None
        for row in range(self.depth):
            prod = float(np.dot(self.cells[row], other.cells[row]))
            if exclude:
                prod += self._exclusion_delta(other, row, exclude)
            if best is None or prod < best:
                best = prod
        return best

    def _exclusion_delta(self, other: "CountMinSketch", row: int,
                         exclude: tuple) -> float:
        # Only the buckets hit by excluded coordinates change, so recompute
        # just those products. Multiple exclusions may share a bucket.
        reduced: dict[int, list[float]] = {}
        for coordinate, self_value, other_value in exclude:
            j = self.bucket(row, coordinate)
            if j not in reduced:
                reduced[j] = [float(self.cells[row, j]), float(other.cells[row, j])]
            reduced[j][0] -= self_value
            reduced[j][1] -= other_value
        delta = 0.0
        for j, (x, y) in reduced.items():
            delta += x * y - float(self.cells[row, j]) * float(other.cells[row, j])
        return delta

    @classmethod
    def combined(cls, first: "CountMinSketch", second: "CountMinSketch") -> "CountMinSketch":
        """Sketch of the coordinate-wise sum of two vectors (shared seeds
        make cell-wise addition exact)."""
        first._check_compatible(second)
        merged = cls(first.width, first.depth, first.seeds)
        merged.cells = first.cells + second.cells
        return merged


class SketchRows(dict):
    """Sketches sharing one width, depth and seed family: a dict from id to
    a ``CountMinSketch`` that views row ``slot_of[a]`` of one
    (slots, depth, width) array, where ``slot_of`` is the caller's dict.

    Only the ids given a row by ``build`` are keys; the other slots' cells
    are left as they are and never read. ``buckets`` holds, per hash row,
    the bucket of the id bound to each slot, so ``build`` finds the columns
    of a whole neighbor vector with one gather per hash row; the caller
    rewrites a slot's buckets with ``place`` when it binds a new id there.
    ``add`` patches one coordinate in many rows with one fancy-index write
    per hash row, applying the same float operations as one ``update`` per
    sketch would.
    """

    def __init__(self, slot_of: dict[int, int], slots: int, width: int,
                 depth: int, seeds: tuple[tuple[int, int], ...]):
        super().__init__()
        _check_dimensions(width, depth, seeds)
        self.width = width
        self.depth = depth
        self.seeds = seeds
        self.slot_of = slot_of
        self.cells = np.zeros((slots, depth, width))
        self._flat = self.cells.reshape(-1)
        self.buckets = np.zeros((depth, slots), np.intp)
        bound = np.fromiter(slot_of.values(), np.intp, len(slot_of))
        for row, seed in enumerate(seeds):
            self.buckets[row, bound] = np.fromiter(
                (_bucket(seed, a, width) for a in slot_of), np.intp, len(slot_of))

    def place(self, a: int) -> None:
        """Hash id a into the bucket table at its slot."""
        slot = self.slot_of[a]
        for row, seed in enumerate(self.seeds):
            self.buckets[row, slot] = _bucket(seed, a, self.width)

    def build(self, a: int, slots: list[int], counts: list[int],
              sizes: list[int]) -> None:
        """Give a the sketch of the vector with counts[i] / sqrt(sizes[i])
        at the id bound to slots[i], replacing whatever its slot's cells
        held. Each cell adds its values in the given order from 0.0, as one
        ``update`` per coordinate on a fresh sketch would."""
        count = len(slots)
        values = np.fromiter(counts, np.float64, count)
        values /= np.sqrt(np.fromiter(sizes, np.float64, count))
        columns = self.buckets[:, np.fromiter(slots, np.intp, count)]
        cells = self.cells[self.slot_of[a]]
        for row in range(self.depth):
            cells[row] = np.bincount(columns[row], weights=values,
                                     minlength=self.width)
        view = CountMinSketch.__new__(CountMinSketch)
        view.width = self.width
        view.depth = self.depth
        view.seeds = self.seeds
        view.cells = cells
        self[a] = view

    def add(self, slots: np.ndarray, coordinate: int, values: np.ndarray) -> None:
        """Add values[i] to ``coordinate`` in the sketch of row slots[i].
        The slots must be distinct: a fancy-index ``+=`` applies only one
        of several writes to the same cell."""
        width = self.width
        starts = slots * (self.depth * width)
        for row, seed in enumerate(self.seeds):
            column = row * width + _bucket(seed, coordinate, width)
            self._flat[starts + column] += values
