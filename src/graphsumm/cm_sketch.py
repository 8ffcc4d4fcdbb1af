"""Count-min sketch over a supernode's scaled neighbor vector.

Coordinate i of the vector carries cross_e(a,i)/sqrt(size_n(i)); the sketch
supports signed coordinate updates and a row-minimum inner-product estimate.
Because every cell is a sum of final coordinate values and all final values
are non-negative, each row's dot product is the true inner product plus
non-negative collision terms, so the estimate never underestimates; one row
overshoots the true value by more than ||A||_1 * ||B||_1 / width with
probability at most ~1/2 under pairwise-independent hashing, and taking the
minimum over d rows drives the failure probability down exponentially in d.
A scored pair's two sketches leave out each other's coordinate (see
``summarizer.build_sketches``), so the true inner product of the sketched
vectors is the score's cross term, and both guarantees, with those
vectors' l1 masses, apply to the estimate as it stands.

All sketches of one run must share the same hash seeds: that is what makes
two sketches comparable, and cell-wise addition of two sketches equal the
sketch of the summed vectors. ``from_vector`` fills a sketch from a whole
vector at once, hashing its coordinates and adding each hash row's values
with one ``bincount``. The merge loop keeps no sketch: it builds the two
sketches of a pair when it scores the pair, so a sketch score costs
O(deg a + deg b + width * depth).
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


class CountMinSketch:
    """One sketch with (depth, width) ``cells``."""

    __slots__ = ("width", "depth", "seeds", "cells")

    def __init__(self, width: int, depth: int, seeds: tuple[tuple[int, int], ...]):
        if width < 1 or depth < 1:
            raise ValueError(f"width and depth must be positive, got {width}, {depth}")
        if len(seeds) != depth:
            raise ValueError(f"need {depth} hash seeds, got {len(seeds)}")
        self.width = width
        self.depth = depth
        self.seeds = seeds
        self.cells = np.zeros((depth, width))

    @classmethod
    def from_vector(cls, width: int, depth: int, seeds: tuple[tuple[int, int], ...],
                    coordinates, values: np.ndarray) -> "CountMinSketch":
        """Sketch of the vector with values[i] at coordinates[i]. Each cell
        adds its values in the given order from 0.0, as one ``update`` per
        coordinate on a fresh sketch would."""
        sketch = cls(width, depth, seeds)
        cells = sketch.cells
        # _bucket on an object array does Python int arithmetic per element,
        # so every id hashes exactly as in ``update``, whatever its size
        coordinates = np.fromiter(coordinates, object, len(values))
        for row, seed in enumerate(seeds):
            columns = _bucket(seed, coordinates, width).astype(np.intp)
            cells[row] = np.bincount(columns, weights=values, minlength=width)
        return sketch

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

    def inner_product_estimate(self, other: "CountMinSketch") -> float:
        """Minimum over rows of the cell-wise dot product; never below the
        true inner product of the sketched vectors."""
        self._check_compatible(other)
        return min(float(np.dot(mine, theirs))
                   for mine, theirs in zip(self.cells, other.cells))

    @classmethod
    def combined(cls, first: "CountMinSketch", second: "CountMinSketch") -> "CountMinSketch":
        """Sketch of the coordinate-wise sum of two vectors (shared seeds
        make cell-wise addition exact)."""
        first._check_compatible(second)
        merged = cls(first.width, first.depth, first.seeds)
        merged.cells = first.cells + second.cells
        return merged
