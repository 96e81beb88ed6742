"""Exact finite-blocklength coding-rate analysis and empirical checks.

Everything here is computed at desk scale from exact class sizes: class
masses, the minimal codebook size under an overflow constraint, the
coding rate, third-order slope fits against log2 n, a Monte Carlo normality
check for the plug-in self-information, and the likelihood-approximation gap
between a statistic and its cuboid center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import FamilySpec, entropy, evaluate, mle_batch, varentropy
from .markov import MarkovFamilySpec, entropy_rate, markov_type_index, varentropy_rate
from .pointtypes import ExactStatMap, derive_lattice, point_type_index
from .quantized import Grid, build_type_index
from .typeclass import TypeIndex, group_rows


@dataclass(frozen=True)
class SourceSpec:
    """A memoryless or Markov family with the true model generating the data
    (``theta_star``, kept as a float tuple checked against the family)."""

    family: FamilySpec | MarkovFamilySpec
    theta_star: tuple[float, ...]

    def __post_init__(self):
        theta = self.family.check_theta(self.theta_star)
        object.__setattr__(self, "theta_star", tuple(theta.tolist()))

    @property
    def markov(self) -> bool:
        return isinstance(self.family, MarkovFamilySpec)

    @property
    def theta_array(self) -> np.ndarray:
        return np.asarray(self.theta_star, dtype=float)

    @property
    def entropy(self) -> float:
        """Entropy per symbol, or the chain's entropy rate, in bits."""
        return (entropy_rate if self.markov else entropy)(self.family, self.theta_array)

    @property
    def varentropy(self) -> float:
        """Varentropy per symbol, or the chain's varentropy rate, in bits^2."""
        return (varentropy_rate if self.markov else varentropy)(self.family, self.theta_array)


@dataclass(frozen=True)
class RateReport:
    n: int
    epsilon: float
    gamma: float
    M: int
    rate: float
    mode: str


def class_masses(source: SourceSpec, index: TypeIndex) -> list[float]:
    """Probability of each class under the true model, in class id (codec) order.

    Each member weighs 2^(log2 size + log2 p), computed in log space: a
    composition's sequences have log2 p = counts . log2 pmf, and a Markov
    path (size 1) has log2 p = stats . theta - n psi(theta). The total over
    all classes is 1 to float accuracy.
    """
    theta = source.theta_array
    if source.markov:
        loglik = index.member_stats @ theta - index.n * source.family.psi(theta)
    else:
        loglik = index.member_stats @ np.log2(evaluate(source.family, theta).pmf)
    return np.bincount(index.member_class, weights=np.exp2(index.member_log2_sizes + loglik),
                       minlength=len(index.bounds) - 1).tolist()


def m_eps(source: SourceSpec, index: TypeIndex, epsilon: float) -> RateReport:
    """Smallest codebook size over class-size thresholds with overflow <= eps.

    The index numbers its classes ascending by exact size, and they can only
    be cut between distinct size values (the threshold is on the size
    itself); the report's gamma is log2 of the largest kept size divided by n.
    Only the overflow tail is read: the compensated suffix sum runs from the
    largest class down and stops once it passes epsilon.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    masses = class_masses(source, index)
    sizes = index.sizes
    # "keep all" (suffix 0) is always admissible; the empty codebook never is
    best = len(sizes)
    # masses are >= 0 and the exact suffix only grows downward, while the
    # compensated sum is within ~2u|S| of it, far inside the 1e-9 slack: once
    # it passes epsilon * (1 + 1e-9), no smaller cut has suffix <= epsilon
    stop = epsilon * (1 + 1e-9)
    acc = 0.0
    comp = 0.0
    for i in range(len(sizes) - 1, 0, -1):
        y = masses[i] - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        if acc > stop:
            break
        if acc <= epsilon and sizes[i] != sizes[i - 1]:
            best = i
    n = index.n
    # every mode's classes partition all m^n sequences
    m_total = index.alphabet_size ** n - sum(sizes[best:])
    gamma = float(index.log2_sizes[best - 1]) / n
    # the rate is ceil(log2 M) / n, with M >= 1 (every class has a member)
    return RateReport(n=n, epsilon=epsilon, gamma=gamma, M=m_total,
                      rate=(m_total - 1).bit_length() / n, mode=index.mode)


def gaussian_Q(z: float) -> float:
    """Standard normal tail probability."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gaussian_Qinv(p: float) -> float:
    """Inverse of gaussian_Q on (0,1), by bisection plus Newton polish."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"tail probability must be in (0,1), got {p}")
    lo, hi = -40.0, 40.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gaussian_Q(mid) > p:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(8):
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        if density <= 0.0:
            break
        step = (gaussian_Q(z) - p) / density
        z += step
        if abs(step) < 1e-13 * max(1.0, abs(z)):
            break
    return z


@dataclass(frozen=True)
class FitReport:
    slope: float
    intercept: float
    residuals: tuple[float, ...]
    points: tuple[tuple[int, float, float], ...]  # (n, rate, y)
    mode: str
    epsilon: float


def fit_excess(points) -> tuple[float, float, tuple[float, ...]]:
    """Least-squares line of the excess rate against log2 n, and its residuals."""
    xs = [math.log2(n) for n, _, _ in points]
    ys = [y for _, _, y in points]
    sol, *_ = np.linalg.lstsq(np.vstack([xs, np.ones(len(xs))]).T, ys, rcond=None)
    slope, intercept = float(sol[0]), float(sol[1])
    residuals = tuple(y - (slope * x + intercept) for x, y in zip(xs, ys))
    return slope, intercept, residuals


def build_index(family, mode: str, n: int, s: float = 1.0, anchor=None,
                stat_map=None, budget: int | None = None) -> TypeIndex:
    """The type index of one mode at blocklength n: compositions ("quantized")
    or paths ("markov") by the grid cuboid of their statistic average, or
    compositions by exact lattice point ("point", from ``stat_map`` or else
    the family's rational tau). ``budget`` caps the members enumerated,
    compositions or paths; each builder has its own default."""
    if mode not in ("quantized", "point", "markov"):
        raise ValueError(f"unknown mode {mode!r}")
    if (mode == "markov") != isinstance(family, MarkovFamilySpec):
        raise ValueError(f"mode {mode} does not fit a {type(family).__name__}")
    if mode == "point":
        if stat_map is None:
            stat_map = ExactStatMap.from_rational_tau(family)
        return point_type_index(family, derive_lattice(stat_map), n, budget=budget)
    grid = Grid.create(n=n, s=s, d=family.d, anchor=anchor)
    if mode == "markov":
        return markov_type_index(family, n, grid, budget=budget)
    return build_type_index(family, n, grid, budget=budget)


def third_order_fit(source: SourceSpec, n_list, epsilon: float,
                    mode: str = "quantized", s: float = 1.0, anchor=None,
                    stat_map=None, budget: int | None = None) -> FitReport:
    """Fit the excess y(n) = n*rate - n*H - sigma*sqrt(n)*Qinv(eps) against
    log2 n, building and evaluating one blocklength's index at a time.

    The slope estimates d/2 - 1 in quantized mode and d'/2 - 1 in point mode.
    In Markov mode it is diagnostic at desk scale: exhaustive blocklengths
    are small, so residuals run wide.
    """
    ns = list(n_list)
    if sorted(set(ns)) != ns:
        raise ValueError("n_list must be strictly increasing")
    if len(ns) < 3:
        raise ValueError("need at least 3 blocklengths to fit a slope")
    h = source.entropy
    sigma = math.sqrt(source.varentropy)
    qi = gaussian_Qinv(epsilon)
    points = []
    for n in ns:
        index = build_index(source.family, mode, n, s=s, anchor=anchor, stat_map=stat_map,
                            budget=budget)
        rate = m_eps(source, index, epsilon).rate
        points.append((n, rate, n * rate - n * h - sigma * math.sqrt(n) * qi))
    slope, intercept, residuals = fit_excess(points)
    return FitReport(slope=slope, intercept=intercept, residuals=residuals,
                     points=tuple(points), mode=mode, epsilon=epsilon)


def normality_check(source: SourceSpec, n: int, samples: int, seed: int) -> float:
    """Sup deviation on z in [-3,3] (step 0.01) between the Monte Carlo tail
    of the normalized plug-in self-information and the Gaussian tail.

    Sampling draws symbol-count vectors (the statistic is a function of the
    counts, so this matches i.i.d. sequence draws) from a counter-based
    Philox generator; a fixed seed reproduces the statistic bit for bit.
    """
    if source.markov:
        raise ValueError("the normality check covers memoryless sources only")
    if samples < 10_000:
        raise ValueError("normality check needs at least 1e4 samples")
    sigma2 = source.varentropy
    if sigma2 <= 1e-14:
        raise ValueError("varentropy is zero (uniform source); z-scores undefined")
    sigma = math.sqrt(sigma2)
    h = source.entropy
    fam = source.family
    ev = evaluate(fam, source.theta_array)
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(n, ev.pmf, size=samples)
    grouped, bounds, _ = group_rows(counts)
    taus = (counts[grouped[bounds[:-1]]].astype(float) @ fam.tau_array) / n
    theta_hat, psi_hat = mle_batch(fam, taus)
    loglik = n * (np.einsum("ij,ij->i", theta_hat, taus) - psi_hat)
    zvals = (-loglik - n * h) / (math.sqrt(n) * sigma)
    order = np.argsort(zvals)
    zs = zvals[order]
    wts = np.diff(bounds)[order].astype(float)
    tail_from = np.concatenate([np.cumsum(wts[::-1])[::-1], [0.0]]) / samples
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.01)
    emp = tail_from[np.searchsorted(zs, grid, side="right")]
    gauss = np.array([gaussian_Q(z) for z in grid.tolist()])
    return float(np.abs(emp - gauss).max())


def _center_loglik(spec: FamilySpec, grid: Grid,
                   index: TypeIndex) -> tuple[np.ndarray, np.ndarray]:
    """Per member of a quantized index on ``grid``: its statistic average, and
    the log-likelihood n (<theta_c, stat> - psi(theta_c)) of its sequences at
    the ML parameter theta_c of its class's cuboid center (one batch)."""
    n = index.n
    stats = np.einsum("ij,jk->ik", index.member_stats.astype(float), spec.tau_array) / n
    theta_c, psi_c = mle_batch(spec, grid.center_of_index(index.keys))
    cls = index.member_class
    return stats, n * (np.einsum("ij,ij->i", theta_c[cls], stats) - psi_c[cls])


def ml_approx_check(spec: FamilySpec, grid: Grid, n: int,
                    budget: int | None = None) -> float:
    """Max over compositions of the plug-in log-likelihood gap between the
    exact statistic and its cuboid center; certifies 0 <= gap <= 2*kappa*s.

    The statistic-side likelihood takes the better of the two solved
    parameters, so the reported gap is a lower bound on the true gap and is
    nonnegative by construction.
    """
    index = build_type_index(spec, n, grid, budget=budget)
    stats, lp_center = _center_loglik(spec, grid, index)
    bound = 2 * spec.kappa * grid.s
    theta_hat, psi_hat = mle_batch(spec, stats)
    lp_hat = n * (np.einsum("ij,ij->i", theta_hat, stats) - psi_hat)
    gaps = np.maximum(lp_hat, lp_center) - lp_center
    over = np.flatnonzero(gaps > bound + 1e-9)
    if len(over):
        row = int(over[0])
        raise RuntimeError(
            f"likelihood approximation gap {gaps[row]:.6g} exceeds 2*kappa*s = "
            f"{bound:.6g} at counts {tuple(index.member_stats[row].tolist())}"
        )
    return float(gaps.max())


def max_sandwich_deviation(spec: FamilySpec, grid: Grid, index: TypeIndex) -> float:
    """Max over all sequences of |log2 |T| - r(x^n)| for the class-size
    sandwich, where r uses the likelihood at the class's cuboid center."""
    n = index.n
    _, lp = _center_loglik(spec, grid, index)
    r = -lp - spec.d / 2 * math.log2(n) + spec.d * math.log2(grid.s)
    return float(np.abs(index.log2_sizes[index.member_class] - r).max())


def sandwich_sweep(spec: FamilySpec, n_list, s: float, anchor=None,
                   budget: int | None = None):
    """Yield (n, dev, C*, ok) per blocklength for the class-size sandwich:
    C* = max(0, dev(n0) - 2*kappa*s) is fitted at the first n and ok is
    dev <= 2*kappa*s + C* + 1e-9."""
    bound = 2 * spec.kappa * s
    cstar = None
    for n in n_list:
        grid = Grid.create(n=n, s=s, d=spec.d, anchor=anchor)
        dev = max_sandwich_deviation(spec, grid, build_type_index(spec, n, grid, budget=budget))
        if cstar is None:
            cstar = max(0.0, dev - bound)
        yield n, dev, cstar, dev <= bound + cstar + 1e-9
