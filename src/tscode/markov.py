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

from .errors import BudgetError, SpecError
from .family import Alphabet, FamilySpec
from .quantized import Grid
from .rates import FitReport, RateReport, _codebook_report, fit_excess, gaussian_Qinv
from .typeclass import TypeIndex

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
    m = p.shape[0]
    adj = p > 0
    for mat in (adj, adj.T):
        reached = np.zeros(m, dtype=bool)
        reached[0] = True
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for b in np.nonzero(mat[a])[0]:
                    if not reached[b]:
                        reached[b] = True
                        nxt.append(int(b))
            frontier = nxt
        if not reached.all():
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
    """Pair-statistic sums for every path, ordered by packed path id."""
    m = mspec.alphabet.size
    total = m ** n
    ids = np.arange(total, dtype=np.int64)
    flat = mspec.tau2_array.reshape(m * m, mspec.d)
    stats = np.zeros((total, mspec.d))
    prev = np.full(total, mspec.x0 - 1, dtype=np.int64)
    for i in range(n):
        digit = (ids // (m ** (n - 1 - i))) % m
        stats += flat[prev * m + digit]
        prev = digit
    return stats


def markov_type_index(mspec: MarkovFamilySpec, n: int, grid: Grid,
                      budget_paths: int | None = None) -> TypeIndex:
    """Quantized pair-statistic type classes at blocklength n, with exact
    sizes from enumerating all m^n paths (whose packed ids are the codec's
    member order)."""
    if grid.n != n:
        raise SpecError(f"grid built for n={grid.n}, requested n={n}")
    if grid.d != mspec.d:
        raise SpecError(f"grid dimension {grid.d} does not match family d={mspec.d}")
    m = mspec.alphabet.size
    budget = DEFAULT_PATH_BUDGET if budget_paths is None else budget_paths
    # m^n >= 2^n > budget once n reaches the budget's bit length, so the
    # power is only formed when it is small
    if n >= budget.bit_length() or m ** n > budget:
        raise BudgetError("path enumeration", f"{m}^{n}", budget,
                          hint="raise --budget-paths")
    stats = _all_path_stats(mspec, n)
    return TypeIndex(mspec, n, "markov", grid.cell_index(stats / n),
                     [1] * len(stats), stats, grid.center_of_index)


def markov_class_masses(index: TypeIndex, theta) -> list[float]:
    """Exact per-class probabilities under the chain started at x0."""
    th = index.spec.check_theta(theta)
    return index.class_sums(index.member_stats @ th - index.n * index.spec.psi(th))


def markov_m_eps(index: TypeIndex, theta_star, epsilon: float) -> RateReport:
    return _codebook_report(index, markov_class_masses(index, theta_star), epsilon)


def markov_eps_rate(index: TypeIndex, theta_star, epsilon: float) -> float:
    return markov_m_eps(index, theta_star, epsilon).rate


def markov_third_order_fit(mspec: MarkovFamilySpec, theta_star, n_list,
                           epsilon: float, s: float = 1.0, anchor=None,
                           budget_paths: int | None = None) -> FitReport:
    """Excess-rate slope fit for the Markov code; diagnostic at desk scale
    (exhaustive blocklengths are small, so residuals run wide)."""
    ns = list(n_list)
    if len(ns) < 3:
        raise ValueError("need at least 3 blocklengths to fit a slope")
    h = entropy_rate(mspec, theta_star)
    sigma = math.sqrt(varentropy_rate(mspec, theta_star))
    qi = gaussian_Qinv(epsilon)
    points = []
    for n in ns:
        grid = Grid.create(n=n, s=s, d=mspec.d, anchor=anchor)
        index = markov_type_index(mspec, n, grid, budget_paths=budget_paths)
        rate = markov_eps_rate(index, theta_star, epsilon)
        y = n * rate - n * h - sigma * math.sqrt(n) * qi
        points.append((n, rate, y))
    slope, intercept, residuals = fit_excess(points)
    return FitReport(slope=slope, intercept=intercept, residuals=residuals,
                     points=tuple(points), mode="markov", epsilon=epsilon)
