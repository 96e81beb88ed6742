import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscode.errors import SpecError
from tscode.family import (
    Alphabet,
    FamilySpec,
    entropy,
    evaluate,
    hull_distance,
    mle,
    mle_batch,
    psi,
    varentropy,
)
from tscode.quantized import Grid, build_type_index
from tscode.rates import SourceSpec, _center_loglik, class_masses
from conftest import class_id, mean_stat

LOG2_3 = math.log2(3.0)


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestConstruction:
    def test_alphabet_requires_two_symbols(self):
        with pytest.raises(SpecError):
            Alphabet(1)

    def test_tau_row_length_checked(self):
        with pytest.raises(SpecError):
            FamilySpec(Alphabet(2), 2, ((0.0,), (1.0,)), 1.0)

    def test_minimality_rejected(self):
        # duplicate rows: centered differences cannot span R^2
        with pytest.raises(SpecError, match="not minimal"):
            FamilySpec.create([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], rho_max=1.0)

    def test_rho_max_must_be_positive_finite(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(SpecError):
                FamilySpec.create([[0.0], [1.0]], rho_max=bad)

    def test_theta_dimension_mismatch_is_spec_error(self, bernoulli):
        with pytest.raises(SpecError):
            psi(bernoulli, [0.0, 1.0])

    def test_theta_norm_bounded(self, bernoulli):
        with pytest.raises(SpecError):
            psi(bernoulli, [bernoulli.rho_max + 1.0])


class TestPsiAndSequenceProbability:
    def test_psi_zero_is_log_alphabet(self, bernoulli, ternary):
        assert psi(bernoulli, [0.0]) == pytest.approx(1.0, abs=1e-15)
        assert psi(ternary, [0.0, 0.0]) == pytest.approx(math.log2(3), abs=1e-15)

    def test_bernoulli_theta_one(self, bernoulli):
        ev = evaluate(bernoulli, [1.0])
        assert ev.psi == pytest.approx(LOG2_3, abs=1e-15)
        assert ev.pmf == pytest.approx([1 / 3, 2 / 3], abs=1e-15)

    def test_uniform_sequence_probability(self, ternary):
        xs = [1, 2, 3, 1, 2]
        assert _log2_prob(ternary, [0.0, 0.0], xs) == pytest.approx(
            -5 * math.log2(3), abs=1e-12)

    def test_bernoulli_examples(self, bernoulli):
        assert _log2_prob(bernoulli, [0.0], [1, 2, 1, 2]) == pytest.approx(-4.0)
        assert _log2_prob(bernoulli, [1.0], [2, 2]) == pytest.approx(
            2 * (1 - LOG2_3), abs=1e-12)

    def test_matches_per_symbol_sum(self, ternary):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.normal(size=2) * 0.6
            xs = rng.integers(1, 4, size=37)
            ev = evaluate(ternary, theta)
            direct = sum(math.log2(ev.pmf[x - 1]) for x in xs)
            assert _log2_prob(ternary, theta, xs) == pytest.approx(
                direct, abs=1e-9 * len(xs))

    def test_empty_sequence_rejected(self, bernoulli):
        with pytest.raises(ValueError, match="empty"):
            bernoulli.alphabet.indices([])

    def test_bad_symbol_rejected(self, bernoulli):
        with pytest.raises(ValueError, match="outside 1..2"):
            bernoulli.alphabet.indices([1, 3])


def _log2_prob(spec, theta, xs):
    """log2 p_theta(x^n) read from the class masses: on a grid of side 1/n
    with unit-vector statistics each class is one composition, whose mass is
    its size times the probability of each of its sequences."""
    n = len(xs)
    idx = build_type_index(spec, n, Grid.create(n=n, s=1.0, d=spec.d))
    c = class_id(idx, xs)
    return math.log2(class_masses(SourceSpec(spec, tuple(theta)), idx)[c]) - idx.log2_sizes[c]


def _stat_at(spec, xs):
    """A sequence's statistic average, read from the batched center
    log-likelihood pass at the member holding it."""
    n = len(xs)
    idx = build_type_index(spec, n, Grid.create(n=n, s=1.0, d=spec.d))
    return _center_loglik(spec, idx)[0][idx.members[idx.locate(xs)[0]]]


class TestSuffstat:
    def test_constant_sequence(self, ternary):
        assert _stat_at(ternary, [1] * 6) == pytest.approx([0.0, 0.0])

    def test_bernoulli_balanced(self, bernoulli):
        assert _stat_at(bernoulli, [1, 2, 1, 2]) == pytest.approx([0.5])

    def test_ternary_average(self, ternary):
        assert _stat_at(ternary, [1, 2, 3]) == pytest.approx([1 / 3, 1 / 3])

    def test_depends_only_on_composition(self, ternary):
        a = _stat_at(ternary, [1, 2, 3, 3, 2, 1])
        b = _stat_at(ternary, [3, 3, 2, 2, 1, 1])
        assert a == pytest.approx(b, abs=0)


class TestEntropyVarentropy:
    def test_uniform_entropy(self, ternary):
        assert entropy(ternary, [0.0, 0.0]) == pytest.approx(math.log2(3), abs=1e-14)

    def test_bernoulli_entropy(self, bernoulli):
        assert entropy(bernoulli, [0.0]) == pytest.approx(1.0, abs=1e-15)
        assert entropy(bernoulli, [1.0]) == pytest.approx(binary_entropy(2 / 3), abs=1e-12)

    def test_uniform_varentropy_zero(self, bernoulli, ternary):
        assert varentropy(bernoulli, [0.0]) == pytest.approx(0.0, abs=1e-14)
        assert varentropy(ternary, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)

    def test_two_point_variance(self, bernoulli):
        p = np.array([1 / 3, 2 / 3])
        info = -np.log2(p)
        expected = float(p @ info**2 - (p @ info) ** 2)
        assert varentropy(bernoulli, [1.0]) == pytest.approx(expected, abs=1e-12)

    def test_entropy_closed_form_vs_direct_sum(self, ternary):
        rng = np.random.default_rng(11)
        for _ in range(50):
            theta = rng.normal(size=2)
            theta *= min(1.0, ternary.rho_max / np.linalg.norm(theta))
            ev = evaluate(ternary, theta)
            direct = float(-(ev.pmf @ np.log2(ev.pmf)))
            assert entropy(ternary, theta) == pytest.approx(direct, abs=1e-12)

    def test_varentropy_moment_identity(self, ternary):
        rng = np.random.default_rng(12)
        for _ in range(20):
            theta = rng.normal(size=2) * 0.5
            ev = evaluate(ternary, theta)
            info = -np.log2(ev.pmf)
            second = float(ev.pmf @ info**2)
            h = float(ev.pmf @ info)
            assert varentropy(ternary, theta) == pytest.approx(second - h * h, abs=1e-12)


class TestModelEvalInvariants:
    def test_normalization_100_random_thetas(self, ternary):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.normal(size=2)
            v *= rng.uniform(0, ternary.rho_max) / max(np.linalg.norm(v), 1e-12)
            ev = evaluate(ternary, v)
            assert math.fsum(ev.pmf) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, ternary):
        rng = np.random.default_rng(6)
        step = 1e-5
        for _ in range(20):
            theta = rng.normal(size=2) * 0.7
            ev = evaluate(ternary, theta)
            for j in range(2):
                e = np.zeros(2)
                e[j] = step
                fd = (psi(ternary, theta + e) - psi(ternary, theta - e)) / (2 * step)
                assert abs(fd - ev.grad_psi[j]) <= 1e-6

    def test_hessian_is_statistic_covariance(self, ternary):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.normal(size=2) * 0.7
            ev = evaluate(ternary, theta)
            t = ternary.tau_array
            cov = (t - ev.grad_psi).T @ ((t - ev.grad_psi) * ev.pmf[:, None])
            assert np.abs(ev.hess_psi - cov).max() <= 1e-8

    def test_hessian_positive_semidefinite(self, ternary):
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta = rng.normal(size=2)
            theta *= min(1.0, ternary.rho_max / np.linalg.norm(theta))
            ev = evaluate(ternary, theta)
            assert np.linalg.eigvalsh(ev.hess_psi).min() >= -1e-10


class TestMle:
    def test_uniform_mean_gives_zero(self, ternary):
        target = ternary.tau_array.mean(axis=0)
        assert np.linalg.norm(mle(ternary, target)) <= 1e-9

    def test_bernoulli_two_thirds(self, bernoulli):
        assert mle(bernoulli, [2 / 3]) == pytest.approx([1.0], abs=1e-9)

    def test_clamped_to_ball(self):
        fam = FamilySpec.create([[0.0], [1.0]], rho_max=1.0)
        assert mle(fam, [0.999]) == pytest.approx([1.0], abs=1e-12)

    def test_outside_hull_rejected(self, bernoulli):
        with pytest.raises(ValueError, match="convex hull"):
            mle(bernoulli, [1.5])
        with pytest.raises(ValueError, match="convex hull"):
            mle(bernoulli, [-0.2])
        # the hull slack is 1e-9: past it by 1e-7 is refused, 1e-10 is not
        with pytest.raises(ValueError, match="convex hull"):
            mle(bernoulli, [1 + 1e-7])

    def test_vertex_target_lands_on_sphere(self, bernoulli):
        theta = mle(bernoulli, [1.0])
        assert np.linalg.norm(theta) == pytest.approx(bernoulli.rho_max, abs=1e-9)
        assert mle(bernoulli, [1 + 1e-10]) == pytest.approx([bernoulli.rho_max], abs=0)

    def test_stationarity_random_interior(self, ternary):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.dirichlet([2.0, 2.0, 2.0])
            target = w @ ternary.tau_array
            theta = mle(ternary, target)
            if np.linalg.norm(theta) < ternary.rho_max - 1e-6:
                ev = evaluate(ternary, theta)
                assert np.abs(ev.grad_psi - target).max() <= 1e-9

    def test_mle_beats_random_models(self, ternary):
        rng = np.random.default_rng(10)
        xs = rng.integers(1, 4, size=40)
        stat = mean_stat(ternary, xs)
        theta_hat = mle(ternary, stat)
        # log2 p_theta(x^n) = n (<theta, stat> - psi(theta))
        best = len(xs) * (float(np.dot(theta_hat, stat)) - psi(ternary, theta_hat))
        for _ in range(100):
            v = rng.normal(size=2)
            v *= rng.uniform(0, ternary.rho_max) / max(np.linalg.norm(v), 1e-12)
            assert best >= len(xs) * (float(np.dot(v, stat)) - psi(ternary, v)) - 1e-9

    def test_hull_distance(self, bernoulli):
        assert hull_distance(bernoulli, [0.5]) <= 1e-9
        assert hull_distance(bernoulli, [1.25]) == pytest.approx(0.25, abs=1e-7)

    @pytest.mark.parametrize("tau, w, norm", [
        ([[-0.079, 0.193], [0.063, -1.649], [-0.124, 1.267]],
         (0.218371, 0.612497, 0.169132), 13.2024),
        ([[-1.552, 0.027, 1.408], [-1.438, 1.718, 1.858],
          [-0.623, -1.176, -0.026], [0.476, 0.895, -0.344]],
         (0.096472, 0.901549, 0.001111, 0.000868), 7.1329),
    ])
    def test_interior_optimum_in_wide_ball(self, tau, w, norm):
        # strictly interior optima far from the origin, where the pmf is
        # nearly degenerate and the statistic covariance nearly singular
        fam = FamilySpec.create(tau, rho_max=14.0)
        target = np.asarray(w) @ fam.tau_array
        theta = mle(fam, target)
        assert np.linalg.norm(theta) == pytest.approx(norm, abs=1e-4)
        assert np.linalg.norm(evaluate(fam, theta).grad_psi - target) <= 1e-9

    def test_hull_lp_on_non_simplex_family(self):
        # four rows in d = 2: neither the d = 1 nor the simplex shortcut applies
        square = FamilySpec.create([[0, 0], [1, 0], [0, 1], [1, 1]], rho_max=3.0)
        assert hull_distance(square, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)
        assert hull_distance(square, [1.25, 0.5]) == pytest.approx(0.25, abs=1e-9)
        assert hull_distance(square, [-0.5, 2.0]) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError, match="convex hull"):
            mle(square, [1.25, 0.5])
        theta = mle(square, [1.0, 1.0])
        assert np.linalg.norm(theta) == pytest.approx(square.rho_max, abs=1e-9)

    def test_interior_optimum_just_inside_clamp(self):
        # an overshooting step can land on the sphere even though the optimum
        # is interior; the solver must come back inside and reach stationarity
        fam = FamilySpec.create([[0.0], [1.0]], rho_max=1.0)
        for target in (0.66, 0.6665, 2 / 3 - 1e-9):
            theta = mle(fam, [target])
            assert abs(theta[0]) < 1.0
            assert evaluate(fam, theta).grad_psi[0] == pytest.approx(target, abs=1e-8)
        # while genuinely clamped targets still report the endpoint
        assert mle(fam, [0.75]) == pytest.approx([1.0], abs=0)
        assert mle(fam, [0.25]) == pytest.approx([-1.0], abs=0)


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_mle_inverts_mean_map_bernoulli(p):
    fam = FamilySpec.create([[0.0], [1.0]], rho_max=12.0)
    theta = mle(fam, [p])
    ev = evaluate(fam, theta)
    assert ev.grad_psi[0] == pytest.approx(p, abs=1e-8)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_psi_shift_invariance(m, seed):
    # adding a constant vector to every statistic row shifts psi by <theta, c>
    rng = np.random.default_rng(seed)
    tau = rng.normal(size=(m, 2))
    tau[1:] += rng.normal(size=2)  # keep rank generically full
    try:
        fam = FamilySpec.create(tau.tolist(), rho_max=2.0)
    except SpecError:
        return
    shift = rng.normal(size=2)
    fam2 = FamilySpec.create((tau + shift).tolist(), rho_max=2.0)
    theta = rng.uniform(-1.0, 1.0, size=2)  # |theta| <= sqrt 2, inside rho_max 2
    assert psi(fam2, theta) == pytest.approx(
        psi(fam, theta) + float(np.dot(theta, shift)), abs=1e-9)


def _kkt_residual(spec, target, theta):
    """Gradient of the ML objective, less its outward radial part on the sphere."""
    g = np.asarray(target) - evaluate(spec, theta).grad_psi
    nrm = float(np.linalg.norm(theta))
    if nrm >= spec.rho_max * (1 - 1e-12):
        radial = float(np.dot(g, theta)) / nrm
        if radial > 0.0:
            g = g - radial * theta / nrm
    return float(np.linalg.norm(g))


@st.composite
def batch_mle_cases(draw):
    m = draw(st.integers(2, 5))
    d = draw(st.integers(1, min(3, m - 1)))
    tau = [[draw(st.integers(-3, 3)) for _ in range(d)] for _ in range(m)]
    diffs = np.asarray(tau[1:], dtype=float) - np.asarray(tau[0], dtype=float)
    if np.linalg.matrix_rank(diffs) < d:
        tau[1:d + 1] = [[tau[0][j] + (1 if j == i else 0) for j in range(d)] for i in range(d)]
    spec = FamilySpec.create(tau, rho_max=draw(st.floats(0.5, 30.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 12))
    counts = np.vstack([n * np.eye(m, dtype=np.int64),
                        rng.multinomial(n, np.full(m, 1.0 / m), size=draw(st.integers(0, 12)))])
    weights = rng.dirichlet(np.full(m, 0.5), size=draw(st.integers(0, 12)))
    targets = np.vstack([counts / n, weights]) @ spec.tau_array
    return spec, targets


@given(batch_mle_cases())
@settings(max_examples=60, deadline=None)
def test_mle_batch_matches_scalar_solves(case):
    spec, full = case
    for targets in (full, full[:1]):
        thetas, psis = mle_batch(spec, targets)
        assert thetas.shape == targets.shape and psis.shape == (len(targets),)
        for target, theta, psi_row in zip(targets, thetas, psis):
            assert np.linalg.norm(theta) <= spec.rho_max * (1 + 1e-15)
            residual = _kkt_residual(spec, target, theta)
            assert residual <= 1e-9
            assert psi_row == pytest.approx(psi(spec, theta), abs=1e-12)
            ref = mle(spec, target)
            shortfall = (float(np.dot(ref, target)) - psi(spec, ref)
                         - float(np.dot(theta, target)) + psi_row)
            # the objective is concave, so the scalar solve can beat this row
            # by at most its KKT residual times their distance; that term is
            # what separates two rounding-divergent solves on a nearly flat
            # objective (a vertex target in a wide ball)
            assert shortfall <= 1e-12 + residual * float(np.linalg.norm(ref - theta))


def test_mle_batch_empty_and_shape_checked(ternary):
    thetas, psis = mle_batch(ternary, np.empty((0, 2)))
    assert thetas.shape == (0, 2) and psis.shape == (0,)
    with pytest.raises(SpecError):
        mle_batch(ternary, np.zeros(2))
