"""Point type classes: equality classes of the exact statistic.

Two sequences share a point class iff their average statistics are exactly
equal, i.e. iff they are equiprobable under every model of the family. The
user declares an exact decomposition of each statistic coordinate over named
pairwise rationally-independent constants with rational coefficients; the
integer lattice map L and its rank d_prime are derived from it by exact
rational elimination. All class keys are integer tuples — no tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class ExactStatMap:
    """Declared exact decomposition of the statistic table.

    For coordinate j the symbols satisfy
        tau(x)[j] = tau(1)[j] + sum_t basis[j][t] * coeffs[x][j][t]
    with rational coeffs and basis constants asserted pairwise independent
    over the rationals. ``basis_hints`` are decimal display values only.
    """

    spec: FamilySpec
    basis_names: tuple[tuple[str, ...], ...]
    basis_hints: tuple[tuple[float, ...], ...]
    coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]  # [symbol][coord][t]

    def __post_init__(self):
        m, d = self.spec.alphabet.size, self.spec.d
        if len(self.basis_names) != d or len(self.basis_hints) != d:
            raise SpecError(f"basis must declare {d} coordinate groups")
        for j, (names, hints) in enumerate(zip(self.basis_names, self.basis_hints)):
            if not names:
                raise SpecError(f"coordinate {j + 1} declares an empty basis")
            if len(names) != len(hints):
                raise SpecError(f"coordinate {j + 1}: names and hints differ in length")
            if len(set(names)) != len(names):
                raise SpecError(
                    f"coordinate {j + 1} declares a dependent basis: repeated name"
                )
            for a in range(len(names)):
                for b in range(a + 1, len(names)):
                    if hints[a] == hints[b]:
                        raise SpecError(
                            f"coordinate {j + 1} declares a dependent basis: "
                            f"constants {names[a]!r} and {names[b]!r} share the value "
                            f"{hints[a]!r}"
                        )
        if len(self.coeffs) != m:
            raise SpecError(f"coefficients must cover all {m} symbols")
        for x, per_coord in enumerate(self.coeffs):
            if len(per_coord) != d:
                raise SpecError(f"symbol {x + 1}: expected {d} coordinate groups")
            for j, vec in enumerate(per_coord):
                if len(vec) != len(self.basis_names[j]):
                    raise SpecError(
                        f"symbol {x + 1}, coordinate {j + 1}: expected "
                        f"{len(self.basis_names[j])} coefficients"
                    )
        for j in range(d):
            for t, val in enumerate(self.coeffs[0][j]):
                if val != 0:
                    raise SpecError(
                        "symbol 1 must have zero coefficients (the offset is tau(1))"
                    )

    @staticmethod
    def from_rational_tau(spec: FamilySpec) -> "ExactStatMap":
        """Shortcut for all-rational tables: basis {1} per coordinate."""
        m, d = spec.alphabet.size, spec.d
        coeffs = tuple(
            tuple(
                (Fraction(spec.tau[x][j]) - Fraction(spec.tau[0][j]),)
                for j in range(d)
            )
            for x in range(m)
        )
        return ExactStatMap(
            spec=spec,
            basis_names=tuple(("1",) for _ in range(d)),
            basis_hints=tuple((1.0,) for _ in range(d)),
            coeffs=coeffs,
        )

    def hint_residuals(self) -> list[float]:
        """Per-symbol-coordinate gap between the table and the hint expansion."""
        out = []
        for x in range(self.spec.alphabet.size):
            for j in range(self.spec.d):
                approx = self.spec.tau[0][j] + sum(
                    h * float(c) for h, c in zip(self.basis_hints[j], self.coeffs[x][j])
                )
                out.append(abs(approx - self.spec.tau[x][j]))
        return out


@dataclass(frozen=True)
class LatticeMap:
    """Reduced integer representation of the statistic.

    ``L[x-1]`` is the d_prime integer vector of symbol x with L(1) = 0;
    ``row_selection`` records which cleared-denominator rows were kept.
    ``recon`` is the exact rational matrix taking L(x) back to
    tau(x) - tau(1); it reconstructs tau from any lattice average.
    """

    d_prime: int
    L: tuple[tuple[int, ...], ...]
    row_selection: tuple[int, ...]
    recon: tuple[tuple[Fraction, ...], ...]
    tau1: tuple[float, ...]

    @cached_property
    def L_array(self) -> np.ndarray:
        a = np.asarray(self.L, dtype=np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def recon_array(self) -> np.ndarray:
        a = np.asarray([[float(v) for v in row] for row in self.recon])
        a.setflags(write=False)
        return a


def _gauss_jordan(rows: list[list[Fraction]], ncols: int) -> list[int | None]:
    """Exact Gauss-Jordan elimination, in place, one row at a time in order.

    A row is reduced on its first ``ncols`` columns against the pivot rows
    before it; if anything is left it is scaled to a unit pivot at its first
    nonzero column, which is then cleared from the earlier pivot rows.
    Returns each row's pivot column, or None where the row reduced to zero
    (it depends on the rows before it). Columns past ``ncols`` ride along:
    they end up holding the solution in the pivot rows and the residual in
    the zero rows.
    """
    pivots: list[int | None] = []
    done: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        for col, prow in done:
            f = row[col]
            if f:
                row[:] = [v - f * w for v, w in zip(row, prow)]
        col = next((c for c in range(ncols) if row[c]), None)
        pivots.append(col)
        if col is None:
            continue
        row[:] = [v / row[col] for v in row]
        for _, prow in done:
            f = prow[col]
            if f:
                prow[:] = [v - f * w for v, w in zip(prow, row)]
        done.append((col, row))
    return pivots


def derive_lattice(stat_map: ExactStatMap) -> LatticeMap:
    """Keep the independent coefficient rows, clear their denominators, and
    solve exactly for the reconstruction, all by one elimination routine."""
    spec = stat_map.spec
    m, d = spec.alphabet.size, spec.d
    # flattened (coordinate, basis-element) rows over symbols
    rows = [[stat_map.coeffs[x][j][t] for x in range(m)]
            for j in range(d) for t in range(len(stat_map.basis_names[j]))]
    # independence over symbols 2..m (the symbol-1 column is zero)
    pivots = _gauss_jordan([[Fraction(v) for v in row[1:]] for row in rows], m - 1)
    selection = tuple(i for i, p in enumerate(pivots) if p is not None)
    d_prime = len(selection)
    if d_prime == 0:
        raise SpecError("lattice map is trivial: all statistic rows coincide")
    cleared = []
    for r in selection:
        scale = math.lcm(*(v.denominator for v in rows[r]))
        cleared.append([int(v * scale) for v in rows[r]])
    L = tuple(tuple(row[x] for row in cleared) for x in range(m))
    # exact affine reconstruction M with M @ L(x) = tau(x) - tau(1): one
    # equation per symbol 2..m, all d coordinates as right-hand sides; L has
    # full row rank, so every column gets a pivot and M is unique
    eqs = [[Fraction(v) for v in L[x]]
           + [Fraction(spec.tau[x][j]) - Fraction(spec.tau[0][j]) for j in range(d)]
           for x in range(1, m)]
    pivots = _gauss_jordan(eqs, d_prime)
    solved = {p: row for p, row in zip(pivots, eqs) if p is not None}
    recon = tuple(tuple(solved[a][d_prime + j] for a in range(d_prime)) for j in range(d))
    worst = max((abs(float(v)) for p, row in zip(pivots, eqs) if p is None
                 for v in row[d_prime:]), default=0.0)
    if worst > 1e-9:
        raise SpecError(
            f"declared decomposition is inconsistent with the statistic table "
            f"(reconstruction residual {worst:.3g})"
        )
    return LatticeMap(
        d_prime=d_prime,
        L=L,
        row_selection=selection,
        recon=recon,
        tau1=tuple(float(v) for v in spec.tau[0]),
    )


def point_type_index(spec: FamilySpec, lmap: LatticeMap, n: int,
                     budget: int | None = None) -> TypeIndex:
    """Group all n-compositions by their exact scaled lattice point."""
    m = spec.alphabet.size
    check_budget("composition enumeration", composition_count(n, m),
                 DEFAULT_COMPOSITION_BUDGET if budget is None else budget)
    comps = composition_array(n, m)

    def centers_of_keys(keys):
        return np.asarray(lmap.tau1) + (keys.astype(float) / n) @ lmap.recon_array.T

    return TypeIndex(spec, n, "point", comps, *multiset_sizes(comps),
                     lambda counts: counts @ lmap.L_array, centers_of_keys)

