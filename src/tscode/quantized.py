"""Quantized type classes: the cuboid partition of the statistic space.

Cuboids have side s/n and are half-open, (-s/2n, s/2n] around each center
per coordinate; centers live on the lattice anchor + (s/n) Z^d. Two sequences
share a class iff their average statistics fall in the same cuboid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpecError
from .family import FamilySpec
from .typeclass import (
    DEFAULT_COMPOSITION_BUDGET,
    TypeIndex,
    check_budget,
    composition_array,
    composition_count,
    multiset_sizes,
)

# Relative tolerance for resolving floating-point boundary ties toward the
# inclusive (+s/2n) side of the half-open cuboid.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Cuboid grid at blocklength n: side s/n, centers anchored at `anchor`."""

    n: int
    s: float
    d: int
    anchor: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise SpecError(f"blocklength must be a positive integer, got {self.n!r}")
        if not (math.isfinite(self.s) and self.s > 0):
            raise SpecError(f"grid scale s must be a finite positive real, got {self.s!r}")
        if len(self.anchor) != self.d:
            raise SpecError(f"anchor has length {len(self.anchor)}, expected d={self.d}")
        if not all(map(math.isfinite, self.anchor)):
            raise SpecError(f"grid anchor must be finite, got {self.anchor!r}")

    @staticmethod
    def create(n: int, s: float, d: int, anchor=None) -> "Grid":
        if anchor is None:
            anchor = (0.0,) * d
        return Grid(n=n, s=float(s), d=d, anchor=tuple(float(a) for a in anchor))

    @property
    def side(self) -> float:
        return self.s / self.n

    @cached_property
    def anchor_array(self) -> np.ndarray:
        a = np.asarray(self.anchor, dtype=float)
        a.setflags(write=False)
        return a

    def cell_index(self, tau) -> np.ndarray:
        """Integer lattice index of the cuboid containing tau.

        Works on a single d-vector or an (N, d) batch. The index k satisfies
        tau - (anchor + k*side) in (-side/2, side/2] with ties snapped to the
        inclusive side at relative tolerance 1e-12. Raises SpecError when an
        index does not fit in int64 (a cell side far below the statistic's
        distance from the anchor).
        """
        t = np.asarray(tau, dtype=float)
        # an overflow to inf or nan fails the range check below
        with np.errstate(over="ignore", invalid="ignore"):
            v = (t - self.anchor_array) / self.side - 0.5
            nearest = np.rint(v)
            snap = np.abs(v - nearest) <= _TIE_RTOL * np.maximum(1.0, np.abs(v))
            k = np.where(snap, nearest, np.ceil(v))
        if not np.all(np.abs(k) < 2.0 ** 63):
            raise SpecError(f"cell index out of int64 range on the grid with side "
                            f"{self.side!r} and anchor {self.anchor!r}")
        return k.astype(np.int64)

    def center_of_index(self, k) -> np.ndarray:
        return self.anchor_array + np.asarray(k, dtype=float) * self.side


def build_type_index(spec: FamilySpec, n: int, grid: Grid,
                     budget: int | None = None) -> TypeIndex:
    """Group all n-compositions by the cuboid of their average statistic."""
    if grid.n != n:
        raise SpecError(f"grid built for n={grid.n}, requested n={n}")
    if grid.d != spec.d:
        raise SpecError(f"grid dimension {grid.d} does not match family d={spec.d}")
    m = spec.alphabet.size
    check_budget("composition enumeration", composition_count(n, m),
                 DEFAULT_COMPOSITION_BUDGET if budget is None else budget)
    comps = composition_array(n, m)

    def keys_of(counts):
        # einsum, not @: numpy hands a float matmul to the BLAS thread pool,
        # which made this tall (N, m) x (m, d) product up to 10x slower
        return grid.cell_index(np.einsum("ij,jk->ik", counts.astype(float), spec.tau_array) / n)

    return TypeIndex(spec, n, "quantized", comps, *multiset_sizes(comps), keys_of,
                     grid.center_of_index)

