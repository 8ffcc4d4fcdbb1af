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
``SketchRows`` keeps such a family as the rows of one (slots, depth, width)
array, so one coordinate is patched in many sketches by a single array write
and merging two sketches is adding one row into another.
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
    """One sketch: ``cells`` is (depth, width) and ``l1_mass`` the running
    sum of all updates. A standalone sketch owns its arrays; one held by a
    ``SketchRows`` views row ``slot`` of that family's shared arrays."""

    __slots__ = ("width", "depth", "seeds", "cells", "_mass", "slot")

    def __init__(self, width: int, depth: int, seeds: tuple[tuple[int, int], ...]):
        _check_dimensions(width, depth, seeds)
        self.width = width
        self.depth = depth
        self.seeds = seeds
        self.cells = np.zeros((depth, width))
        self._mass = np.zeros(1)
        self.slot = None

    @property
    def l1_mass(self) -> float:
        return float(self._mass[0])

    @l1_mass.setter
    def l1_mass(self, value: float) -> None:
        self._mass[0] = value

    def bucket(self, row: int, coordinate: int) -> int:
        return _bucket(self.seeds[row], coordinate, self.width)

    def update(self, coordinate: int, delta: float) -> None:
        """Add delta to one coordinate (all rows). Caller guarantees the
        true value of every coordinate stays non-negative."""
        cells = self.cells
        width = self.width
        for row, seed in enumerate(self.seeds):
            cells[row, _bucket(seed, coordinate, width)] += delta
        self._mass[0] += delta

    def row_sums(self) -> np.ndarray:
        return self.cells.sum(axis=1)

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
        merged.l1_mass = first.l1_mass + second.l1_mass
        return merged


class SketchRows(dict):
    """Sketches sharing one width, depth and seed family, keyed by id.

    The sketch of the i-th id given is a ``CountMinSketch`` whose ``cells``
    and ``l1_mass`` view row ``slot`` = i of one (slots, depth, width) array
    and one (slots,) array. ``add`` patches a coordinate in many rows with
    one fancy-index write per hash row, and ``add_row`` merges one sketch
    into another in place. Both apply the same float operations, in the same order, as
    per-sketch ``update`` and ``combined`` calls, so the cells come out
    bit-identical.
    """

    def __init__(self, ids: list[int], width: int, depth: int,
                 seeds: tuple[tuple[int, int], ...]):
        super().__init__()
        _check_dimensions(width, depth, seeds)
        self.width = width
        self.depth = depth
        self.seeds = seeds
        self.cells = np.zeros((len(ids), depth, width))
        self.l1_mass = np.zeros(len(ids))
        self._flat = self.cells.reshape(-1)
        for slot, a in enumerate(ids):
            view = CountMinSketch.__new__(CountMinSketch)
            view.width = width
            view.depth = depth
            view.seeds = seeds
            view.cells = self.cells[slot]
            view._mass = self.l1_mass[slot:slot + 1]
            view.slot = slot
            self[a] = view

    def bucket_table(self, coordinates: list[int]) -> np.ndarray:
        """(depth, len(coordinates)) buckets: each coordinate hashed once
        per row."""
        width = self.width
        count = len(coordinates)
        table = np.empty((self.depth, count), np.intp)
        for row, seed in enumerate(self.seeds):
            table[row] = np.fromiter((_bucket(seed, c, width) for c in coordinates),
                                     np.intp, count)
        return table

    def add(self, slots: np.ndarray, coordinate: int, values: np.ndarray) -> None:
        """Add values[i] to ``coordinate`` in the sketch of row slots[i].
        The slots must be distinct: a fancy-index ``+=`` applies only one
        of several writes to the same cell."""
        width = self.width
        starts = slots * (self.depth * width)
        for row, seed in enumerate(self.seeds):
            column = row * width + _bucket(seed, coordinate, width)
            self._flat[starts + column] += values
        self.l1_mass[slots] += values

    def add_row(self, target: int, source: int) -> None:
        """Add the sketch in row ``source`` into row ``target``."""
        self.cells[target] += self.cells[source]
        self.l1_mass[target] += self.l1_mass[source]
