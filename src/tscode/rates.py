"""Exact finite-blocklength coding-rate analysis and empirical checks.

Everything here is computed at desk scale from exact class sizes: overflow
probabilities, the minimal codebook size under an overflow constraint, the
coding rate, third-order slope fits against log2 n, a Monte Carlo normality
check for the plug-in self-information, and the likelihood-approximation gap
between a statistic and its cuboid center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .family import FamilySpec, entropy, evaluate, mle_batch, varentropy
from .quantized import Grid, build_type_index
from .typeclass import TypeIndex, check_composition_budget, composition_array, group_rows

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SourceSpec:
    """A family together with the true model generating the data."""

    family: FamilySpec
    theta_star: tuple[float, ...]

    def __post_init__(self):
        self.family.check_theta(np.asarray(self.theta_star))

    @property
    def theta_array(self) -> np.ndarray:
        return np.asarray(self.theta_star, dtype=float)

    @property
    def entropy(self) -> float:
        return entropy(self.family, self.theta_array)

    @property
    def varentropy(self) -> float:
        return varentropy(self.family, self.theta_array)


@dataclass(frozen=True)
class RateReport:
    n: int
    epsilon: float
    gamma: float
    M: int
    rate: float
    mode: str


def class_masses(source: SourceSpec, index: TypeIndex) -> list[float]:
    """Probability of each class under the true model, in class order.

    Each member composition weighs 2^(log2 size + counts . log2 p), computed
    in log space; the total over all classes is 1 to float accuracy.
    """
    ev = evaluate(source.family, source.theta_array)
    return index.class_sums(index.member_log2_sizes + index.member_stats @ np.log2(ev.pmf))


def overflow_prob(source: SourceSpec, index: TypeIndex, gamma: float) -> float:
    """Exact P[log2 |T(X^n)| > n*gamma] under the true model."""
    masses = class_masses(source, index)
    bound = index.n * gamma
    total = math.fsum(
        mass for size, mass in zip(index.sizes, masses)
        if math.log2(size) > bound
    )
    return min(max(total, 0.0), 1.0)


def _ceil_log2(m: int) -> int:
    if m < 1:
        raise ValueError("codebook size must be positive")
    return (m - 1).bit_length()


def _codebook_report(index: TypeIndex, masses, epsilon: float) -> RateReport:
    """Shared core of the codebook-size evaluator over the classes of any index.

    Classes sorted ascending by exact size can only be cut between distinct
    size values (the threshold is on the size itself); the report's gamma is
    log2 of the largest kept size divided by n.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    order = index.class_order
    sizes = np.array(index.sizes, dtype=object)[order]
    mass_sorted = np.asarray(masses)[order].tolist()
    ncls = len(order)
    # compensated suffix masses: suffix[i] = mass of classes i..end
    suffix = [0.0] * (ncls + 1)
    acc = 0.0
    comp = 0.0
    for i in range(ncls - 1, -1, -1):
        y = mass_sorted[i] - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        suffix[i] = acc
    # candidate cut points: boundaries between distinct sizes (plus "keep all");
    # the empty codebook is never admissible for epsilon < 1
    cuts = np.append(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1, ncls)
    admissible = cuts[np.asarray(suffix)[cuts] <= epsilon]
    if not len(admissible):
        raise ValueError("no admissible threshold; epsilon too small for total mass")
    best = int(admissible[0])
    m_total = int(sizes[:best].sum())
    n = index.n
    gamma = math.log2(sizes[best - 1]) / n
    return RateReport(n=n, epsilon=epsilon, gamma=gamma, M=m_total,
                      rate=_ceil_log2(m_total) / n, mode=index.mode)


def m_eps(source: SourceSpec, index: TypeIndex, epsilon: float) -> RateReport:
    """Smallest codebook size over class-size thresholds with overflow <= eps."""
    return _codebook_report(index, class_masses(source, index), epsilon)


def eps_rate(source: SourceSpec, index: TypeIndex, epsilon: float) -> float:
    """Coding rate ceil(log2 M(eps)) / n."""
    return m_eps(source, index, epsilon).rate


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


def fit_line(xs, ys) -> tuple[float, float]:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    a = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(sol[0]), float(sol[1])


def third_order_points(source: SourceSpec, indexes: dict[int, TypeIndex],
                       epsilon: float) -> list[tuple[int, float, float]]:
    """Per-n excess y(n) = n*rate - n*H - sigma*sqrt(n)*Qinv(eps)."""
    h = source.entropy
    sigma = math.sqrt(source.varentropy)
    qi = gaussian_Qinv(epsilon)
    pts = []
    for n in sorted(indexes):
        rate = eps_rate(source, indexes[n], epsilon)
        y = n * rate - n * h - sigma * math.sqrt(n) * qi
        pts.append((n, rate, y))
    return pts


def fit_excess(points) -> tuple[float, float, tuple[float, ...]]:
    xs = [math.log2(n) for n, _, _ in points]
    ys = [y for _, _, y in points]
    slope, intercept = fit_line(xs, ys)
    residuals = tuple(y - (slope * x + intercept) for x, y in zip(xs, ys))
    return slope, intercept, residuals


def third_order_fit(source: SourceSpec, n_list, epsilon: float,
                    mode: str = "quantized", s: float = 1.0, anchor=None,
                    stat_map=None, budget: int | None = None) -> FitReport:
    """Build per-n indexes, evaluate rates, and fit the excess vs log2 n.

    The slope estimates d/2 - 1 in quantized mode and d'/2 - 1 in point mode.
    """
    ns = list(n_list)
    if sorted(set(ns)) != ns:
        raise ValueError("n_list must be strictly increasing")
    if len(ns) < 3:
        raise ValueError("need at least 3 blocklengths to fit a slope")
    indexes: dict[int, TypeIndex] = {}
    if mode == "quantized":
        for n in ns:
            grid = Grid.create(n=n, s=s, d=source.family.d, anchor=anchor)
            indexes[n] = build_type_index(source.family, n, grid, budget=budget)
    elif mode == "point":
        from .pointtypes import ExactStatMap, derive_lattice, point_type_index
        if stat_map is None:
            stat_map = ExactStatMap.from_rational_tau(source.family)
        lmap = derive_lattice(stat_map)
        for n in ns:
            indexes[n] = point_type_index(source.family, lmap, n, budget=budget)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    points = third_order_points(source, indexes, epsilon)
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
    uniq = counts[grouped[bounds[:-1]]]
    weights = np.diff(bounds)
    taus = (uniq.astype(float) @ fam.tau_array) / n
    theta_hat, psi_hat = mle_batch(fam, taus)
    loglik = n * (np.einsum("ij,ij->i", theta_hat, taus) - psi_hat)
    zvals = (-loglik - n * h) / (math.sqrt(n) * sigma)
    order = np.argsort(zvals)
    zs = zvals[order]
    wts = weights[order].astype(float)
    tail_from = np.concatenate([np.cumsum(wts[::-1])[::-1], [0.0]]) / samples
    sup = 0.0
    for zi in np.arange(-3.0, 3.0 + 1e-9, 0.01):
        pos = int(np.searchsorted(zs, zi, side="right"))
        emp = tail_from[pos]
        sup = max(sup, abs(emp - gaussian_Q(zi)))
    return sup


def ml_approx_check(spec: FamilySpec, grid: Grid, n: int,
                    budget: int | None = None) -> float:
    """Max over compositions of the plug-in log-likelihood gap between the
    exact statistic and its cuboid center; certifies 0 <= gap <= 2*kappa*s.

    The statistic-side likelihood takes the better of the two solved
    parameters, so the reported gap is a lower bound on the true gap and is
    nonnegative by construction.
    """
    if grid.n != n:
        raise SpecError(f"grid built for n={grid.n}, requested n={n}")
    fam_m = spec.alphabet.size
    check_composition_budget(n, fam_m, budget)
    comps = composition_array(n, fam_m)
    stats = (comps.astype(float) @ spec.tau_array) / n
    bound = 2 * spec.kappa * grid.s
    keys = grid.cell_index(stats)
    order, bounds, cell_of = group_rows(keys)
    theta_c, psi_c = mle_batch(spec, grid.center_of_index(keys[order[bounds[:-1]]]))
    theta_hat, psi_hat = mle_batch(spec, stats)
    lp_center = n * (np.einsum("ij,ij->i", theta_c[cell_of], stats) - psi_c[cell_of])
    lp_hat = n * (np.einsum("ij,ij->i", theta_hat, stats) - psi_hat)
    gaps = np.maximum(lp_hat, lp_center) - lp_center
    over = np.flatnonzero(gaps > bound + 1e-9)
    if len(over):
        row = int(over[0])
        raise RuntimeError(
            f"likelihood approximation gap {gaps[row]:.6g} exceeds 2*kappa*s = "
            f"{bound:.6g} at counts {tuple(comps[row].tolist())}"
        )
    return float(gaps.max())


def max_sandwich_deviation(spec: FamilySpec, grid: Grid, index: TypeIndex) -> float:
    """Max over all sequences of |log2 |T| - r(x^n)| for the class-size
    sandwich, where r uses the likelihood at the class's cuboid center."""
    n = index.n
    taus = (index.member_stats.astype(float) @ spec.tau_array) / n
    theta_c, psi_c = mle_batch(spec, index.centers)
    cls = index.member_class
    lp = n * (np.einsum("ij,ij->i", taus, theta_c[cls]) - psi_c[cls])
    r = -lp - spec.d / 2 * math.log2(n) + spec.d * math.log2(grid.s)
    log2_sizes = np.fromiter(map(math.log2, index.sizes), float, count=len(index.sizes))
    return float(np.abs(log2_sizes[cls] - r).max())
