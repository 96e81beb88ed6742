"""First-order Markov families with pair statistics and a single normalizer.

Transition probabilities are p(b|a) = 2^(<theta, tau2(a,b)> - psi(theta))
with one global psi, which forces every row sum sum_b 2^<theta, tau2(a,b)>
to be identical. Specs violating that row normalization are rejected: the
row sums agree for every theta iff every state holds the same multiset of
tau2 vectors, which is checked exactly at construction. The initial symbol
x0 is a required field known to encoder and decoder.

Type classes quantize the pair-statistic average over cuboids exactly as in
the memoryless case; sizes are exact path counts from exhaustive enumeration,
which stops at the path budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpecError
from .family import Alphabet, FamilySpec
from .quantized import Grid
from .typeclass import TypeIndex, check_budget

DEFAULT_PATH_BUDGET = 2_000_000


@dataclass(frozen=True)
class MarkovFamilySpec:
    """Markov exponential family: pair statistic table and initial symbol."""

    alphabet: Alphabet
    d: int
    tau2: tuple[tuple[float, ...], ...]  # m*m rows, row-major over (from, to)
    rho_max: float
    x0: int

    def __post_init__(self):
        m = self.alphabet.size
        if len(self.tau2) != m * m:
            raise SpecError(f"tau2 must have {m * m} rows, got {len(self.tau2)}")
        for i, row in enumerate(self.tau2):
            if len(row) != self.d:
                raise SpecError(f"tau2 row {i + 1} has length {len(row)}, expected {self.d}")
            if not all(math.isfinite(v) for v in row):
                raise SpecError(f"tau2 row {i + 1} contains a non-finite value")
        if not (math.isfinite(self.rho_max) and self.rho_max > 0):
            raise SpecError(f"rho_max must be a finite positive real, got {self.rho_max!r}")
        if not (isinstance(self.x0, int) and 1 <= self.x0 <= m):
            raise SpecError(f"x0 must be a symbol in 1..{m}, got {self.x0!r}")
        rows = [sorted(self.tau2[a * m:(a + 1) * m]) for a in range(m)]
        for a, row in enumerate(rows[1:], start=2):
            # row log-sums agree for every theta iff the multisets agree:
            # exponentials of distinct linear forms are linearly independent
            if row != rows[0]:
                raise SpecError(
                    f"row normalization violated: state {a} holds a different "
                    f"multiset of tau2 vectors than state 1 (single-normalizer "
                    f"family requires equal row sums for every theta)"
                )

    @staticmethod
    def create(tau2, rho_max: float, x0: int) -> "MarkovFamilySpec":
        rows = tuple(tuple(float(v) for v in row) for row in tau2)
        m = math.isqrt(len(rows))
        if m * m != len(rows) or m < 2:
            raise SpecError(f"tau2 must have a square number (>=4) of rows, got {len(rows)}")
        return MarkovFamilySpec(Alphabet(m), len(rows[0]) if rows else 0,
                                rows, float(rho_max), int(x0))

    @cached_property
    def tau2_array(self) -> np.ndarray:
        a = np.asarray(self.tau2, dtype=float).reshape(
            self.alphabet.size, self.alphabet.size, self.d)
        a.setflags(write=False)
        return a

    def _row_log_sums(self, theta: np.ndarray) -> np.ndarray:
        exps = self.tau2_array @ theta  # (m, m)
        shift = exps.max(axis=1, keepdims=True)
        return shift[:, 0] + np.log2(np.exp2(exps - shift).sum(axis=1))

    # the same shape, finiteness and ball checks as a memoryless family
    check_theta = FamilySpec.check_theta

    def psi(self, theta) -> float:
        """Base-2 log-normalizer: the log-sum of any row (all rows agree)."""
        return float(self._row_log_sums(self.check_theta(theta))[0])


def transition_matrix(mspec: MarkovFamilySpec, theta) -> np.ndarray:
    """Row-stochastic matrix 2^(<theta, tau2(a,b)> - psi(theta))."""
    th = mspec.check_theta(theta)
    psi = mspec.psi(th)
    return np.exp2(mspec.tau2_array @ th - psi)


def stationary_dist(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix."""
    p = np.asarray(p, dtype=float)
    m = p.shape[0]
    if p.shape != (m, m) or np.any(p < 0):
        raise ValueError("transition matrix must be square and nonnegative")
    if np.abs(p.sum(axis=1) - 1).max() > 1e-9:
        raise ValueError("transition matrix rows must sum to 1")
    _check_irreducible(p)
    a = np.vstack([p.T - np.eye(m), np.ones((1, m))])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = np.abs(pi @ p - pi).max()
    if residual > 1e-12:
        raise ValueError(f"stationary solve residual {residual:.3g} exceeds 1e-12")
    return pi


def _check_irreducible(p: np.ndarray):
    """Refuse a chain in which some state cannot reach another. Entry (a, b)
    of the boolean power (I | A)^(m-1) of the zero pattern A is set iff a
    walk of at most m - 1 steps leads from a to b, and a shortest path
    between two of m states takes at most m - 1."""
    m = p.shape[0]
    if not np.linalg.matrix_power((p > 0) | np.eye(m, dtype=bool), m - 1).all():
        raise ValueError("chain is reducible (zero-pattern reachability failed)")


def entropy_rate(mspec: MarkovFamilySpec, theta) -> float:
    """Stationary entropy rate sum_a pi(a) H(P(.|a)), bits/symbol."""
    p = transition_matrix(mspec, theta)
    pi = stationary_dist(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log2(p), 0.0)
    return float(-(pi @ plogp.sum(axis=1)))


def additive_variance(p: np.ndarray, pi: np.ndarray, g: np.ndarray) -> float:
    """Asymptotic variance per step of sum_i g(X_{i-1}, X_i).

    Fundamental-matrix route: solve the Poisson equation
    (I - P + 1 pi^T) u = h - gbar and return the stationary second moment of
    the martingale increments g(a,b) - gbar + u(b) - u(a).
    """
    m = p.shape[0]
    h = (p * g).sum(axis=1)
    gbar = float(pi @ h)
    z = np.linalg.inv(np.eye(m) - p + np.outer(np.ones(m), pi))
    u = z @ (h - gbar)
    diff = g - gbar + u[None, :] - u[:, None]
    return float(pi @ (p * diff * diff).sum(axis=1))


def varentropy_rate(mspec: MarkovFamilySpec, theta) -> float:
    """Asymptotic variance rate of -log2 p(X^n), bits^2/symbol."""
    p = transition_matrix(mspec, theta)
    pi = stationary_dist(p)
    with np.errstate(divide="ignore"):
        g = np.where(p > 0, -np.log2(p), 0.0)
    return max(additive_variance(p, pi, g), 0.0)


def _all_path_stats(mspec: MarkovFamilySpec, n: int) -> np.ndarray:
    """Pair-statistic sums for every path, ordered by packed path id.

    Paths grow by one symbol per step: path p extended by symbol y is path
    p * m + y, and its last symbol is y, so each step adds tau2(last, y) to
    the sums in the order a step-by-step sum along the path would.
    """
    m = mspec.alphabet.size
    tau2 = mspec.tau2_array.reshape(m, m, mspec.d)
    stats = np.zeros((1, mspec.d)) + tau2[mspec.x0 - 1]
    for _ in range(n - 1):
        stats = (stats.reshape(-1, m, 1, mspec.d) + tau2).reshape(-1, mspec.d)
    return stats


def markov_type_index(mspec: MarkovFamilySpec, n: int, grid: Grid,
                      budget: int | None = None) -> TypeIndex:
    """Quantized pair-statistic type classes at blocklength n, with exact
    sizes from enumerating all m^n paths (whose packed ids are the codec's
    member order)."""
    if grid.n != n:
        raise SpecError(f"grid built for n={grid.n}, requested n={n}")
    if grid.d != mspec.d:
        raise SpecError(f"grid dimension {grid.d} does not match family d={mspec.d}")
    m = mspec.alphabet.size
    budget = DEFAULT_PATH_BUDGET if budget is None else budget
    # m^n >= 2^n > budget once n reaches the budget's bit length, so the
    # power is only formed when it is small
    needed = m ** n if n < budget.bit_length() else math.inf
    check_budget("path enumeration", needed, budget, shown=f"{m}^{n}")
    stats = _all_path_stats(mspec, n)
    return TypeIndex(mspec, n, "markov", stats, [1], np.zeros(len(stats), dtype=np.int32),
                     lambda sums: grid.cell_index(sums / n))


# tsbench's analysis workload and tracer call these two by name; rates
# imports this module, so they import rates when called
def markov_class_masses(index: TypeIndex, theta) -> list[float]:
    """``rates.class_masses`` of the chain at theta, started at x0."""
    from . import rates
    return rates.class_masses(rates.SourceSpec(index.spec, theta), index)


def markov_m_eps(index: TypeIndex, theta_star, epsilon: float):
    """``rates.m_eps`` of the chain at theta_star, started at x0."""
    from . import rates
    return rates.m_eps(rates.SourceSpec(index.spec, theta_star), index, epsilon)
