import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tscode.rates
from tscode.codec import ClassOrdering
from tscode.errors import SpecError
from tscode.family import FamilySpec, entropy, evaluate, varentropy
from tscode.markov import MarkovFamilySpec, entropy_rate, markov_type_index, varentropy_rate
from tscode.quantized import Grid, build_type_index
from tscode.rates import (
    RateReport,
    SourceSpec,
    build_index,
    class_masses,
    eps_rate,
    gaussian_Q,
    gaussian_Qinv,
    m_eps,
    max_sandwich_deviation,
    ml_approx_check,
    normality_check,
    sandwich_sweep,
    third_order_fit,
)
from conftest import theta_for_p1


def sequence_masses_and_lengths(ordering, spec, theta_star):
    """Independent oracle data: per-sequence probability (direct product of
    symbol probabilities) and codeword length, for every sequence."""
    ev = evaluate(spec, np.asarray(theta_star))
    m, n = spec.alphabet.size, ordering.index.n
    out = []
    for xs in product(range(1, m + 1), repeat=n):
        mass = 1.0
        for x in xs:
            mass *= ev.pmf[x - 1]
        out.append((ordering.encode(xs).length, mass))
    return out


def oracle_min_k(items, epsilon):
    k = 0
    while math.fsum(mass for length, mass in items if length >= k) > epsilon:
        k += 1
    return k


@pytest.fixture(scope="module")
def bern_src(bernoulli):
    return SourceSpec(bernoulli, (0.0,))


@pytest.fixture(scope="module")
def idx4(bernoulli):
    return build_type_index(bernoulli, 4, Grid.create(n=4, s=1.0, d=1))


class TestSourceSpec:
    def test_rates_follow_the_family_type(self, bernoulli, flip_markov):
        iid = SourceSpec(bernoulli, [0.4])
        chain = SourceSpec(flip_markov, np.array([0.4]))
        assert iid.theta_star == chain.theta_star == (0.4,)
        assert not iid.markov and chain.markov
        assert iid.entropy == entropy(bernoulli, [0.4])
        assert iid.varentropy == varentropy(bernoulli, [0.4])
        assert chain.entropy == entropy_rate(flip_markov, [0.4])
        assert chain.varentropy == varentropy_rate(flip_markov, [0.4])

    def test_theta_outside_ball_rejected(self, flip_markov):
        with pytest.raises(SpecError, match="exceeds rho_max"):
            SourceSpec(flip_markov, (5.0,))


class TestOverflow:
    def test_single_class_threshold(self, bern_src, idx4):
        # only the size-6 class exceeds n*gamma = log2 5; the classes ascend
        # by size, so it is the last, and it carries the overflow 6/16
        masses = class_masses(bern_src, idx4)
        assert (idx4.log2_sizes > math.log2(5)).tolist() == [False] * 4 + [True]
        assert masses[-1] == pytest.approx(6 / 16, abs=1e-15)

    def test_mass_partition_identity(self, bernoulli, ternary):
        for fam, theta in [(bernoulli, theta_for_p1(0.3)), (ternary, (0.6, -0.4))]:
            src = SourceSpec(fam, theta)
            idx = build_type_index(fam, 7, Grid.create(n=7, s=1.0, d=fam.d))
            assert math.fsum(class_masses(src, idx)) == pytest.approx(1.0, abs=1e-12)

    def test_markov_overflow_sums_masses_of_larger_classes(self, flip_markov):
        # at the codebook cut the overflow P[log2 |T| > n gamma], the mass of
        # the larger classes, is at most epsilon, and M counts the rest
        src = SourceSpec(flip_markov, (1.0,))
        idx = markov_type_index(flip_markov, 10, Grid.create(n=10, s=0.5, d=1))
        masses = class_masses(src, idx)
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)
        for eps in (0.05, 0.2, 0.5, 0.8):
            rep = m_eps(src, idx, eps)
            # distinct sizes up to 2^10 differ by far more than 1e-9 in log2
            over = [v > 10 * rep.gamma + 1e-9 for v in idx.log2_sizes.tolist()]
            assert math.fsum(mass for mass, big in zip(masses, over) if big) <= eps
            assert rep.M == sum(size for size, big in zip(idx.sizes, over) if not big)


class TestMEps:
    def test_worked_example(self, bern_src, idx4):
        assert m_eps(bern_src, idx4, 0.3).M == 16
        rep = m_eps(bern_src, idx4, 0.4)
        assert rep.M == 10
        assert rep.rate == pytest.approx(1.0)
        assert rep.gamma == pytest.approx(0.5)  # log2(4)/4

    def test_near_one_keeps_single_smallest_class(self, bern_src, idx4):
        rep = m_eps(bern_src, idx4, 1 - 1e-9)
        # both singleton classes share size 1, so the cut keeps them together
        assert rep.M == 2

    def test_near_one_single_class_when_sizes_distinct(self, bernoulli):
        # side 0.8 with anchor 0.2 merges the statistics 0 and 0.5 into one
        # cell, leaving distinct class sizes {3, 1}; only the smallest survives
        grid = Grid(n=2, s=1.6, d=1, anchor=(0.2,))
        idx = build_type_index(bernoulli, 2, grid)
        assert sorted(idx.sizes) == [1, 3]
        rep = m_eps(SourceSpec(bernoulli, (0.0,)), idx, 1 - 1e-9)
        assert rep.M == 1

    def test_near_zero_keeps_everything(self, bern_src, idx4):
        assert m_eps(bern_src, idx4, 1e-12).M == 16

    def test_nonincreasing_in_epsilon(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        idx = build_type_index(bernoulli, 9, Grid.create(n=9, s=1.0, d=1))
        ms = [m_eps(src, idx, e).M for e in np.arange(0.01, 0.99, 0.01)]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    def test_epsilon_domain(self, bern_src, idx4):
        with pytest.raises(ValueError):
            m_eps(bern_src, idx4, 0.0)
        with pytest.raises(ValueError):
            m_eps(bern_src, idx4, 1.0)

    def test_matches_threshold_brute_force(self, bernoulli):
        # oracle: scan every realized size threshold directly
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        for n in (3, 5, 8):
            idx = build_type_index(bernoulli, n, Grid.create(n=n, s=1.0, d=1))
            masses = class_masses(src, idx)
            for eps in np.arange(0.02, 0.99, 0.03):
                best = None
                for t in sorted(set(idx.sizes)):
                    drop = math.fsum(m for size, m in zip(idx.sizes, masses)
                                     if size > t)
                    if drop <= eps:
                        kept = sum(size for size in idx.sizes if size <= t)
                        best = kept if best is None else min(best, kept)
                assert m_eps(src, idx, float(eps)).M == best


def kahan_suffixes(masses) -> list[float]:
    """suffix[i] = compensated sum of masses[i:], summed from the end."""
    suffix = [0.0] * (len(masses) + 1)
    acc = 0.0
    comp = 0.0
    for i in range(len(masses) - 1, -1, -1):
        y = masses[i] - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        suffix[i] = acc
    return suffix


def m_eps_whole_suffix(source, index, epsilon) -> RateReport:
    """Reference m_eps: every class's suffix mass, then the smallest
    distinct-size cut whose suffix is <= eps."""
    masses = class_masses(source, index)
    sizes = np.array(index.sizes, dtype=object)
    suffix = kahan_suffixes(masses)
    cuts = np.append(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1, len(sizes))
    best = int(cuts[np.asarray(suffix)[cuts] <= epsilon][0])
    m_total = int(sizes[:best].sum())
    n = index.n
    return RateReport(n=n, epsilon=epsilon, gamma=float(index.log2_sizes[best - 1]) / n,
                      M=m_total, rate=(m_total - 1).bit_length() / n, mode=index.mode)


_BERN = FamilySpec.create([[0.0], [1.0]], rho_max=3.0)
_TERN = FamilySpec.create([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], rho_max=2.0)
_FLIP = MarkovFamilySpec.create([[0.0], [1.0], [1.0], [0.0]], rho_max=3.0, x0=1)
# (family, mode, largest n, grid scales, true models)
_TAIL_CASES = [
    (_BERN, "quantized", 14, (0.5, 1.0, 1.7), ((0.0,), theta_for_p1(0.3), (-2.5,))),
    (_TERN, "quantized", 8, (0.5, 1.0, 2.0), ((0.6, -0.4), (0.0, 0.0), (1.3, 1.1))),
    (_BERN, "point", 14, (1.0,), (theta_for_p1(0.3), (2.9,))),
    (_TERN, "point", 8, (1.0,), ((0.6, -0.4), (-1.0, 1.2))),
    (_FLIP, "markov", 10, (0.5, 1.0), ((1.0,), (0.0,), (-2.0,))),
]


@lru_cache(maxsize=None)
def _tail_case(case: int, n: int, s: float, theta: int):
    fam, mode, _, _, thetas = _TAIL_CASES[case]
    source = SourceSpec(fam, thetas[theta])
    index = build_index(fam, mode, n, s=s)
    return source, index, kahan_suffixes(class_masses(source, index))


@st.composite
def tail_cut_inputs(draw):
    case = draw(st.integers(0, len(_TAIL_CASES) - 1))
    _, _, nmax, scales, thetas = _TAIL_CASES[case]
    source, index, suffix = _tail_case(case, draw(st.integers(1, nmax)),
                                       draw(st.sampled_from(scales)),
                                       draw(st.integers(0, len(thetas) - 1)))
    # each suffix value and its float neighbours: the knife edges of the cut
    edge = draw(st.sampled_from(suffix))
    eps = draw(st.sampled_from([math.nextafter(edge, -1.0), edge, math.nextafter(edge, 2.0)]))
    return source, index, eps


class TestTailCut:
    @given(tail_cut_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_whole_suffix_reference(self, inputs):
        source, index, eps = inputs
        if 0.0 < eps < 1.0:
            assert m_eps(source, index, eps) == m_eps_whole_suffix(source, index, eps)
        else:
            with pytest.raises(ValueError, match="epsilon must be in"):
                m_eps(source, index, eps)

    def test_every_knife_edge_of_a_tied_index(self, bernoulli):
        # binomial sizes come in equal pairs, so half the suffix values
        # fall between equal sizes, where no cut is allowed
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        idx = build_type_index(bernoulli, 9, Grid.create(n=9, s=1.0, d=1))
        assert len(set(idx.sizes)) < len(idx.sizes)
        for edge in kahan_suffixes(class_masses(src, idx)):
            for eps in (math.nextafter(edge, -1.0), edge, math.nextafter(edge, 2.0)):
                if 0.0 < eps < 1.0:
                    assert m_eps(src, idx, eps) == m_eps_whole_suffix(src, idx, eps)

    def test_epsilon_checked_before_the_masses(self, bern_src, idx4, monkeypatch):
        def fail(*args):
            raise AssertionError("class masses computed for an invalid epsilon")
        monkeypatch.setattr(tscode.rates, "class_masses", fail)
        with pytest.raises(ValueError, match="epsilon must be in"):
            m_eps(bern_src, idx4, 1.5)


class TestGaussian:
    def test_q_at_zero(self):
        assert gaussian_Q(0.0) == 0.5

    def test_qinv_at_half(self):
        assert abs(gaussian_Qinv(0.5)) < 1e-12

    def test_monotone_decreasing(self):
        zs = np.linspace(-6, 6, 100)
        qs = [gaussian_Q(z) for z in zs]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_mutual_inverse_1000(self):
        rng = np.random.default_rng(2)
        for p in rng.uniform(1e-9, 1 - 1e-9, size=1000):
            assert abs(gaussian_Q(gaussian_Qinv(float(p))) - p) <= 1e-10

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                gaussian_Qinv(bad)


class TestRateOracle:
    """Definition-level checks of the coding rate against the codec itself."""

    def test_sharp_rank_identity(self, bernoulli, ternary):
        # min{k : P[len >= k] <= eps} always equals bit_length of the
        # sequence-granular minimal codebook size
        for fam, theta, nmax in [(bernoulli, theta_for_p1(0.3), 8),
                                 (ternary, (0.6, -0.4), 5)]:
            ev = evaluate(fam, np.asarray(theta))
            m = fam.alphabet.size
            for n in range(1, nmax + 1):
                o = ClassOrdering(build_type_index(fam, n, Grid.create(n=n, s=1.0, d=fam.d)))
                by_rank = [0.0] * o.total
                lengths = [0] * o.total
                for xs in product(range(1, m + 1), repeat=n):
                    r = o.rank(xs)
                    mass = 1.0
                    for x in xs:
                        mass *= ev.pmf[x - 1]
                    by_rank[r] = mass
                    lengths[r] = o.encode(xs).length
                for eps in np.arange(0.01, 0.51, 0.01):
                    eps = float(eps)
                    k = oracle_min_k(list(zip(lengths, by_rank)), eps)
                    b = 1
                    while math.fsum(by_rank[b:]) > eps:
                        b += 1
                    assert k == b.bit_length(), (n, eps, k, b)

    def test_formula_agrees_away_from_knife_edges(self, bernoulli):
        # ceil(log2 M) equals the definition-level min-k whenever no power of
        # two separates the sequence-granular codebook from the class cut
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        ev = evaluate(bernoulli, np.asarray(theta_for_p1(0.3)))
        for n in range(1, 9):
            o = ClassOrdering(build_type_index(bernoulli, n, Grid.create(n=n, s=1.0, d=1)))
            by_rank = [0.0] * o.total
            lengths = [0] * o.total
            for xs in product((1, 2), repeat=n):
                r = o.rank(xs)
                mass = 1.0
                for x in xs:
                    mass *= ev.pmf[x - 1]
                by_rank[r] = mass
                lengths[r] = o.encode(xs).length
            for eps in np.arange(0.01, 0.51, 0.01):
                eps = float(eps)
                rep = m_eps(src, o.index, eps)
                k_formula = round(rep.rate * n)
                k_def = oracle_min_k(list(zip(lengths, by_rank)), eps)
                b = 1
                while math.fsum(by_rank[b:]) > eps:
                    b += 1
                knife_edge = b.bit_length() != (max(rep.M, 1) - 1).bit_length()
                if not knife_edge:
                    assert k_formula == k_def, (n, eps)
                else:
                    assert abs(k_formula - k_def) <= 1, (n, eps)

    def test_eps_rate_is_report_rate(self, bern_src, idx4):
        assert eps_rate(bern_src, idx4, 0.4) == m_eps(bern_src, idx4, 0.4).rate

    def test_blocklength_one_formula(self, sqrt2_family):
        # at n=1 a coarse grid merges the statistics 1 and sqrt(2) into one
        # cell, leaving class sizes {1, 2}; the rate is ceil(log2) of the
        # smallest admissible codebook count
        src = SourceSpec(sqrt2_family, (0.0,))
        idx = build_type_index(sqrt2_family, 1, Grid.create(n=1, s=0.6, d=1))
        assert sorted(idx.sizes) == [1, 2]
        assert m_eps(src, idx, 0.7).M == 1    # drop the merged pair (mass 2/3)
        assert eps_rate(src, idx, 0.7) == 0.0
        assert m_eps(src, idx, 0.4).M == 3    # cannot drop anything at 0.4
        assert eps_rate(src, idx, 0.4) == 2.0

    def test_quantized_and_point_rates_differ_when_lattice_is_larger(
            self, sqrt2_family, sqrt2_statmap):
        # on the d' > d family the point classes are finer, so at equal
        # (n, eps) the point-mode codebook is larger
        from tscode.pointtypes import derive_lattice, point_type_index
        src = SourceSpec(sqrt2_family, (1.0,))
        n = 64
        q_idx = build_type_index(sqrt2_family, n, Grid.create(n=n, s=1.0, d=1))
        p_idx = point_type_index(sqrt2_family, derive_lattice(sqrt2_statmap), n)
        q_rep = m_eps(src, q_idx, 0.1)
        p_rep = m_eps(src, p_idx, 0.1)
        assert p_rep.M > q_rep.M
        assert p_rep.rate >= q_rep.rate


class TestThirdOrderFit:
    def test_too_few_points(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        with pytest.raises(ValueError):
            third_order_fit(src, [16, 32], 0.1)

    def test_not_increasing(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        with pytest.raises(ValueError):
            third_order_fit(src, [32, 16, 64], 0.1)

    def test_smoke_quantized(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        rep = third_order_fit(src, [16, 32, 64, 128], 0.1, mode="quantized")
        assert rep.mode == "quantized"
        assert len(rep.points) == 4 and len(rep.residuals) == 4
        assert math.isfinite(rep.slope)

    def test_point_mode_defaults_to_rational_lattice(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        rq = third_order_fit(src, [16, 32, 64], 0.1, mode="quantized")
        rp = third_order_fit(src, [16, 32, 64], 0.1, mode="point")
        # Bernoulli point classes coincide with the s=1 quantized classes
        assert [p[1] for p in rq.points] == [p[1] for p in rp.points]

    def test_mode_must_exist_and_fit_the_family(self, bernoulli, flip_markov):
        with pytest.raises(ValueError, match="unknown mode"):
            build_index(bernoulli, "lattice", 8)
        for fam, mode in ((bernoulli, "markov"), (flip_markov, "quantized"),
                          (flip_markov, "point")):
            with pytest.raises(ValueError, match=f"mode {mode} does not fit"):
                build_index(fam, mode, 8)
        with pytest.raises(ValueError, match="does not fit a MarkovFamilySpec"):
            third_order_fit(SourceSpec(flip_markov, (1.0,)), [4, 5, 6], 0.1)


class TestNormality:
    def test_markov_source_rejected(self, flip_markov):
        with pytest.raises(ValueError, match="memoryless sources only"):
            normality_check(SourceSpec(flip_markov, (1.0,)), 16, 10_000, seed=1)

    def test_deterministic_given_seed(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        a = normality_check(src, 64, 10_000, seed=7)
        b = normality_check(src, 64, 10_000, seed=7)
        assert a == b
        assert type(a) is float  # a plain float, so reports print no NumPy repr

    def test_seed_changes_statistic(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        assert normality_check(src, 64, 10_000, seed=7) != \
            normality_check(src, 64, 10_000, seed=8)

    def test_uniform_source_rejected(self, bernoulli):
        src = SourceSpec(bernoulli, (0.0,))
        with pytest.raises(ValueError, match="varentropy"):
            normality_check(src, 64, 10_000, seed=1)

    def test_sample_floor(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        with pytest.raises(ValueError, match="1e4"):
            normality_check(src, 64, 5000, seed=1)

    def test_deviation_is_small_at_large_n(self, bernoulli):
        src = SourceSpec(bernoulli, theta_for_p1(0.3))
        dev = normality_check(src, 256, 20_000, seed=3)
        assert 0 < dev < 0.1

    def test_values_are_pinned_to_the_bit(self, bernoulli, ternary):
        # the statistic of a fixed seed is part of the checked outputs
        assert normality_check(SourceSpec(bernoulli, theta_for_p1(0.3)), 64, 10_000,
                               seed=7).hex() == "0x1.38bafd514161fp-4"
        assert normality_check(SourceSpec(ternary, (0.6, -0.4)), 256, 10_000,
                               seed=3).hex() == "0x1.0380cc7aa5c64p-4"


class TestMlApprox:
    def test_zero_gap_when_stats_on_centers(self, bernoulli):
        # s=1, anchor 0: every achievable statistic is itself a center
        gap = ml_approx_check(bernoulli, Grid.create(n=16, s=1.0, d=1), 16)
        assert 0 <= gap <= 1e-9

    def test_bernoulli_bound(self, bernoulli):
        gap = ml_approx_check(bernoulli, Grid.create(n=16, s=2.0, d=1), 16)
        assert 0 <= gap <= 2 * bernoulli.kappa * 2.0

    def test_ternary_bound(self, ternary):
        for s in (0.5, 1.0, 2.0):
            gap = ml_approx_check(ternary, Grid.create(n=12, s=s, d=2), 12)
            assert 0 <= gap <= 2 * ternary.kappa * s

    def test_gap_over_bound_names_first_composition(self, bernoulli, monkeypatch):
        # a bound of 2 * 0.01 * 2 = 0.04 is exceeded at several compositions;
        # the message names the first in colex order, as a per-row loop does
        monkeypatch.setattr(FamilySpec, "kappa", property(lambda self: 0.01))
        with pytest.raises(RuntimeError) as err:
            ml_approx_check(bernoulli, Grid.create(n=16, s=2.0, d=1), 16)
        assert str(err.value) == ("likelihood approximation gap 0.36499 exceeds "
                                  "2*kappa*s = 0.04 at counts (13, 3)")

    def test_grid_mismatch_rejected(self, bernoulli):
        from tscode.errors import SpecError
        with pytest.raises(SpecError):
            ml_approx_check(bernoulli, Grid.create(n=8, s=1.0, d=1), 16)


class TestSandwichHelper:
    def test_deviation_positive_and_finite(self, bernoulli):
        g = Grid.create(n=16, s=1.0, d=1)
        dev = max_sandwich_deviation(bernoulli, g, build_type_index(bernoulli, 16, g))
        assert 0 < dev < 20

    def test_sweep_fits_the_constant_at_the_first_blocklength(self, bernoulli):
        s, ns = 2.0, (8, 16, 64)
        sweep = list(sandwich_sweep(bernoulli, ns, s))
        devs = []
        for n in ns:
            g = Grid.create(n=n, s=s, d=1)
            devs.append(max_sandwich_deviation(bernoulli, g, build_type_index(bernoulli, n, g)))
        bound = 2 * bernoulli.kappa * s
        cstar = max(0.0, devs[0] - bound)
        assert [(n, dev, c) for n, dev, c, _ in sweep] == [(n, dev, cstar) for n, dev in zip(ns, devs)]
        assert [ok for *_, ok in sweep] == [dev <= bound + cstar + 1e-9 for dev in devs]
        # rho_max 3 clamps centers, which breaks the bound at n = 64
        assert [ok for *_, ok in sweep] == [True, True, False]
