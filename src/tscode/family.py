"""Exponential-family core over a finite alphabet.

Models are p(x) = 2^(<theta, tau(x)> - psi(theta)) for symbols x in {1..m},
with tau a fixed per-symbol statistic table and psi the base-2 log-normalizer.
Every exposed quantity is in bits; the parameter set is the closed L2 ball of
radius ``rho_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import SpecError

LN2 = math.log(2.0)

# Solver settings for the maximum-likelihood map: stop once the KKT residual
# is below the tolerance, give up after the iteration budget; a target that
# ends on the sphere may lie this far (max-norm) outside the statistic hull.
_KKT_TOL = 1e-10
_MAX_ITER = 100
_HULL_SLACK = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {1, ..., size}."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 2:
            raise SpecError(f"alphabet size must be an integer >= 2, got {self.size!r}")

    def indices(self, xs: Iterable[int]) -> tuple[np.ndarray, list[int]]:
        """0-based indices of a nonempty sequence of symbols in 1..size, and their counts."""
        idx = np.asarray(list(xs) if not isinstance(xs, np.ndarray) else xs)
        if idx.size == 0:
            raise ValueError("empty sequence")
        if idx.dtype.kind not in "iu" or idx.ndim != 1:
            raise ValueError("sequence symbols must be integers")
        if idx.min() < 1 or idx.max() > self.size:
            raise ValueError(f"sequence contains symbols outside 1..{self.size}")
        return idx - 1, np.bincount(idx, minlength=self.size + 1)[1:].tolist()


@dataclass(frozen=True)
class FamilySpec:
    """A d-dimensional exponential family given by its statistic table.

    ``tau[x-1]`` is the length-d statistic vector of symbol x. The table must
    be minimal: the differences tau(x) - tau(1), x = 2..m, must span R^d.
    """

    alphabet: Alphabet
    d: int
    tau: tuple[tuple[float, ...], ...]
    rho_max: float

    def __post_init__(self):
        m = self.alphabet.size
        if not isinstance(self.d, int) or self.d < 1:
            raise SpecError(f"parameter dimension must be a positive integer, got {self.d!r}")
        if len(self.tau) != m:
            raise SpecError(f"tau table has {len(self.tau)} rows, expected {m}")
        for i, row in enumerate(self.tau):
            if len(row) != self.d:
                raise SpecError(f"tau row {i + 1} has length {len(row)}, expected {self.d}")
            if not all(math.isfinite(v) for v in row):
                raise SpecError(f"tau row {i + 1} contains a non-finite value")
        if not (isinstance(self.rho_max, (int, float)) and math.isfinite(self.rho_max) and self.rho_max > 0):
            raise SpecError(f"rho_max must be a finite positive real, got {self.rho_max!r}")
        t = np.asarray(self.tau, dtype=float)
        diffs = (t[1:] - t[0]).T
        if np.linalg.matrix_rank(diffs) < self.d:
            raise SpecError(
                f"statistic table is not minimal: rank of centered differences is "
                f"{np.linalg.matrix_rank(diffs)} < d = {self.d}"
            )

    @staticmethod
    def create(tau: Sequence[Sequence[float]], rho_max: float) -> "FamilySpec":
        """Build a spec from a statistic table, inferring alphabet size and d."""
        rows = tuple(tuple(float(v) for v in row) for row in tau)
        if not rows:
            raise SpecError("empty statistic table")
        return FamilySpec(Alphabet(len(rows)), len(rows[0]), rows, float(rho_max))

    @cached_property
    def tau_array(self) -> np.ndarray:
        a = np.asarray(self.tau, dtype=float)
        a.setflags(write=False)
        return a

    @property
    def kappa(self) -> float:
        """The statistic-approximation constant rho_max * sqrt(d) / 2."""
        return self.rho_max * math.sqrt(self.d) / 2.0

    def check_theta(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        if th.shape == () and self.d == 1:
            th = th.reshape(1)
        if th.shape != (self.d,):
            raise SpecError(f"theta has shape {th.shape}, expected ({self.d},)")
        if not np.all(np.isfinite(th)):
            raise SpecError("theta contains a non-finite value")
        if float(np.linalg.norm(th)) > self.rho_max * (1 + 1e-9) + 1e-12:
            raise SpecError(
                f"theta norm {np.linalg.norm(th):.6g} exceeds rho_max {self.rho_max:.6g}"
            )
        return th


@dataclass(frozen=True)
class ModelEval:
    """One model evaluated at a parameter: normalizer, pmf and its moments.

    ``hess_psi`` is the covariance of the statistic under the pmf (the
    curvature of the log-normalizer up to the ln 2 calculus factor).
    """

    theta: np.ndarray
    psi: float
    pmf: np.ndarray
    grad_psi: np.ndarray
    hess_psi: np.ndarray


def _moments(tau: np.ndarray, theta: np.ndarray):
    """psi, pmf, mean statistic and statistic covariance at theta, with a
    max-shifted normalizer (bits); theta is not checked against the ball."""
    exps = tau @ theta
    shift = float(exps.max())
    weights = np.exp2(exps - shift)
    psi = shift + math.log2(math.fsum(weights))
    pmf = np.exp2(exps - psi)
    grad = pmf @ tau
    centered = tau - grad
    hess = centered.T @ (pmf[:, None] * centered)
    hess = (hess + hess.T) / 2.0
    return psi, pmf, grad, hess


def _moments_batch(tau: np.ndarray, theta: np.ndarray):
    """Row-wise ``_moments`` over an (N, d) batch of parameters: psi (N,),
    mean statistic (N, d) and statistic covariance (N, d, d)."""
    exps = theta @ tau.T
    shift = exps.max(axis=1)
    psi = shift + np.log2(np.exp2(exps - shift[:, None]).sum(axis=1))
    pmf = np.exp2(exps - psi[:, None])
    grad = pmf @ tau
    centered = tau - grad[:, None, :]
    cov = centered.transpose(0, 2, 1) @ (pmf[:, :, None] * centered)
    cov = (cov + cov.transpose(0, 2, 1)) / 2.0
    return psi, grad, cov


def evaluate(spec: FamilySpec, theta) -> ModelEval:
    """Evaluate the model at theta with a max-shifted normalizer (bits)."""
    th = spec.check_theta(theta)
    psi, pmf, grad, hess = _moments(spec.tau_array, th)
    return ModelEval(theta=th, psi=psi, pmf=pmf, grad_psi=grad, hess_psi=hess)


def psi(spec: FamilySpec, theta) -> float:
    """Base-2 log-normalizer log2 sum_x 2^<theta, tau(x)>."""
    return evaluate(spec, theta).psi


def entropy(spec: FamilySpec, theta) -> float:
    """Entropy in bits/symbol via the closed form -<theta, grad psi> + psi."""
    ev = evaluate(spec, theta)
    return ev.psi - float(np.dot(ev.theta, ev.grad_psi))


def varentropy(spec: FamilySpec, theta) -> float:
    """Variance of the self-information -log2 p(X), in bits^2/symbol."""
    ev = evaluate(spec, theta)
    info = -np.log2(ev.pmf)
    h = float(np.dot(ev.pmf, info))
    second = float(np.dot(ev.pmf, info * info))
    return max(second - h * h, 0.0)


def hull_distance(spec: FamilySpec, tau_target) -> float:
    """Max-norm distance from tau_target to the convex hull of the tau rows."""
    t = np.asarray(tau_target, dtype=float)
    m, d = spec.alphabet.size, spec.d
    if d == 1:
        col = spec.tau_array[:, 0]
        return max(0.0, float(col.min() - t[0]), float(t[0] - col.max()))
    if m == d + 1:
        # simplex family: barycentric solve; exact membership test
        a = np.vstack([spec.tau_array.T, np.ones(m)])
        try:
            lam = np.linalg.solve(a, np.concatenate([t, [1.0]]))
            if lam.min() >= -1e-12:
                return 0.0
        except np.linalg.LinAlgError:
            pass
    from scipy.optimize import linprog  # only here: the import is slow

    # variables: lambda (m weights), t (distance); minimize t subject to
    # |W lambda - tau| <= t componentwise, lambda >= 0, sum lambda = 1
    c = np.zeros(m + 1)
    c[-1] = 1.0
    w = spec.tau_array.T
    a_ub = np.zeros((2 * d, m + 1))
    a_ub[:d, :m] = w
    a_ub[:d, -1] = -1.0
    a_ub[d:, :m] = -w
    a_ub[d:, -1] = -1.0
    b_ub = np.concatenate([t, -t])
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * m + [(0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"hull distance LP failed: {res.message}")
    return float(res.fun)


def _ball_maximizer(hess: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Maximizer of <b, u> - u^T hess u / 2 over |u| <= rho, hess symmetric
    positive semidefinite (More & Sorensen 1983).

    The unconstrained maximizer is returned when it fits in the ball.
    Otherwise u = (hess + lam I)^-1 b on the sphere, with lam > 0 the root of
    the secular equation 1/|u(lam)| = 1/rho. Its left side is concave and
    increasing in lam, so Newton started below the root climbs to it
    monotonically.
    """
    h, q = np.linalg.eigh(hess)
    h = np.maximum(h, 0.0)
    c = q.T @ b
    if h[0] > 0.0:
        u = c / h
        if float(np.linalg.norm(u)) <= rho:
            return q @ u
    # |u(lam)| >= |c_i| / (h_i + lam) for every i: the root lies above this
    lam = max(0.0, float(np.max(np.abs(c) / rho - h)))
    for _ in range(_MAX_ITER):
        den = h + lam
        u = np.divide(c, den, out=np.zeros_like(c), where=c != 0.0)
        nrm = float(np.linalg.norm(u))
        if nrm <= rho * (1.0 + 1e-15):
            break
        step = (nrm - rho) / rho * nrm * nrm / float(np.sum(u * u / den))
        if step <= 1e-16 * lam:
            break
        lam += step
    return q @ u * (rho / max(nrm, rho))


def _ball_maximizers(hess: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """Row-wise ``_ball_maximizer`` over (N, d, d) curvatures and (N, d)
    linear terms; the secular-equation Newton runs only on the rows whose
    unconstrained maximizer leaves the ball, each until it stops."""
    h, q = np.linalg.eigh(hess)
    h = np.maximum(h, 0.0)
    c = np.einsum("nji,nj->ni", q, b)
    u = np.zeros_like(c)
    interior = h[:, 0] > 0.0
    u[interior] = c[interior] / h[interior]
    scale = np.ones(len(c))
    rows = np.flatnonzero(~interior | (np.linalg.norm(u, axis=1) > rho))
    if len(rows):
        hs, cs = h[rows], c[rows]
        lam = np.maximum(0.0, np.max(np.abs(cs) / rho - hs, axis=1))
        us = np.zeros_like(cs)
        nrms = np.zeros(len(rows))
        active = np.arange(len(rows))
        for _ in range(_MAX_ITER):
            den = hs[active] + lam[active, None]
            ca = cs[active]
            ua = np.divide(ca, den, out=np.zeros_like(ca), where=ca != 0.0)
            na = np.linalg.norm(ua, axis=1)
            us[active], nrms[active] = ua, na
            moving = na > rho * (1.0 + 1e-15)
            step = np.zeros(len(active))
            step[moving] = ((na[moving] - rho) / rho * na[moving] * na[moving]
                            / np.sum(ua[moving] * ua[moving] / den[moving], axis=1))
            moving &= step > 1e-16 * lam[active]
            lam[active[moving]] += step[moving]
            active = active[moving]
            if not len(active):
                break
        u[rows] = us
        scale[rows] = rho / np.maximum(nrms, rho)
    return np.einsum("nij,nj->ni", q, u) * scale[:, None]


def mle(spec: FamilySpec, tau_target) -> np.ndarray:
    """Maximizer of <theta, tau> - psi(theta) over the rho_max ball.

    At an interior optimum the stationarity grad psi(theta) = tau holds to
    solver tolerance. Targets whose unconstrained optimum leaves the ball are
    clamped to the sphere. Targets farther than 1e-9 (max-norm) outside the
    convex hull of the statistic rows raise ValueError.

    Each iteration maximizes the local quadratic model of the objective
    exactly over the ball and backtracks along that step until the objective
    rises enough (Armijo); the loop stops when the gradient, less its outward
    radial part on the sphere, is below tolerance.
    """
    tau_t = np.atleast_1d(np.asarray(tau_target, dtype=float))
    if tau_t.shape != (spec.d,):
        raise SpecError(f"tau target has shape {tau_t.shape}, expected ({spec.d},)")
    tau, rho = spec.tau_array, spec.rho_max
    theta = np.zeros(spec.d)
    psi, _, grad, cov = _moments(tau, theta)
    for _ in range(_MAX_ITER):
        g = tau_t - grad
        nrm = float(np.linalg.norm(theta))
        on_sphere = nrm >= rho * (1 - 1e-12)
        residual = g
        if on_sphere:
            radial = float(np.dot(g, theta)) / nrm
            if radial > 0.0:
                residual = g - radial * theta / nrm
        if float(np.linalg.norm(residual)) <= _KKT_TOL:
            break
        hess = LN2 * cov
        step = _ball_maximizer(hess, g + hess @ theta, rho) - theta
        value = float(np.dot(theta, tau_t)) - psi
        slope = float(np.dot(g, step))
        t = 1.0
        for _ in range(60):
            cand = theta + t * step
            c_psi, _, c_grad, c_cov = _moments(tau, cand)
            # the second test accepts a step whose predicted gain is below
            # the rounding error of the objective
            if (float(np.dot(cand, tau_t)) - c_psi >= value + 1e-4 * t * slope
                    or t * slope <= 1e-14 * (1.0 + abs(value))):
                break
            t /= 2.0
        theta, psi, grad, cov = cand, c_psi, c_grad, c_cov
    else:
        raise RuntimeError(
            "constrained likelihood maximization did not converge; "
            "the statistic target may be numerically degenerate"
        )
    if not on_sphere:
        return theta
    if hull_distance(spec, tau_t) > _HULL_SLACK:
        raise ValueError(
            f"statistic target {tau_t.tolist()} lies outside the convex hull "
            f"of the statistic rows by more than {_HULL_SLACK:g}"
        )
    return theta / nrm * rho


def mle_batch(spec: FamilySpec, targets) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``mle`` over an (N, d) array of targets: the (N, d)
    maximizers and their (N,) log-normalizers psi (bits).

    The same trust-region iteration as ``mle``, with the same tolerances, run
    over the whole batch: each row backtracks on its own and leaves the
    batch once its KKT residual is below tolerance. Rows that end on the
    sphere are snapped to norm ``rho_max``.

    No hull check is made. Precondition: every target is a composition
    average, or the center of a grid cuboid that contains one, so it lies
    within max-norm distance side/2 of the convex hull of the statistic rows.
    Single or external targets go through ``mle``, which checks the hull.
    """
    tau_t = np.asarray(targets, dtype=float)
    if tau_t.ndim != 2 or tau_t.shape[1] != spec.d:
        raise SpecError(f"tau targets have shape {tau_t.shape}, expected (N, {spec.d})")
    tau, rho = spec.tau_array, spec.rho_max
    theta = np.zeros_like(tau_t)
    psi, grad, cov = _moments_batch(tau, theta)
    out = np.empty_like(tau_t)
    active = np.arange(len(tau_t))
    for _ in range(_MAX_ITER):
        tt = tau_t[active]
        g = tt - grad
        nrm = np.linalg.norm(theta, axis=1)
        on_sphere = nrm >= rho * (1 - 1e-12)
        residual = g.copy()
        radial = np.zeros(len(active))
        radial[on_sphere] = np.sum(g[on_sphere] * theta[on_sphere], axis=1) / nrm[on_sphere]
        outward = radial > 0.0
        residual[outward] -= radial[outward, None] * theta[outward] / nrm[outward, None]
        done = np.linalg.norm(residual, axis=1) <= _KKT_TOL
        snap = done & on_sphere
        out[active[done]] = theta[done]
        out[active[snap]] = theta[snap] / nrm[snap, None] * rho
        keep = ~done
        active, tt, g = active[keep], tt[keep], g[keep]
        theta, psi, grad, cov = theta[keep], psi[keep], grad[keep], cov[keep]
        if not len(active):
            break
        hess = LN2 * cov
        step = _ball_maximizers(hess, g + (hess @ theta[:, :, None])[:, :, 0], rho) - theta
        value = np.sum(theta * tt, axis=1) - psi
        slope = np.sum(g * step, axis=1)
        t = np.ones(len(active))
        pending = np.arange(len(active))
        for trial in range(60):
            tp = t[pending]
            cand = theta[pending] + tp[:, None] * step[pending]
            c_psi, c_grad, c_cov = _moments_batch(tau, cand)
            # the second test accepts a step whose predicted gain is below
            # the rounding error of the objective; the last trial is taken
            ok = ((np.sum(cand * tt[pending], axis=1) - c_psi
                   >= value[pending] + 1e-4 * tp * slope[pending])
                  | (tp * slope[pending] <= 1e-14 * (1.0 + np.abs(value[pending]))))
            if trial == 59:
                ok[:] = True
            acc = pending[ok]
            theta[acc], psi[acc], grad[acc], cov[acc] = cand[ok], c_psi[ok], c_grad[ok], c_cov[ok]
            pending = pending[~ok]
            if not len(pending):
                break
            t[pending] /= 2.0
    if len(active):
        raise RuntimeError(
            "constrained likelihood maximization did not converge; "
            "the statistic target may be numerically degenerate"
        )
    return out, _moments_batch(tau, out)[0]
