import math
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscode.codec import ClassOrdering
from tscode.errors import BudgetError, SpecError
from tscode.markov import (
    MarkovFamilySpec,
    _check_irreducible,
    additive_variance,
    entropy_rate,
    markov_class_masses,
    markov_m_eps,
    markov_type_index,
    stationary_dist,
    transition_matrix,
    varentropy_rate,
)
from tscode.quantized import Grid
from tscode.rates import SourceSpec, m_eps, third_order_fit
from conftest import class_id


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@pytest.fixture(scope="module")
def circulant3():
    """3-state circulant family, d=2: statistic indicates (b-a) mod 3."""
    rows = []
    for a in range(3):
        for b in range(3):
            delta = (b - a) % 3
            rows.append([1.0 if delta == 1 else 0.0, 1.0 if delta == 2 else 0.0])
    return MarkovFamilySpec.create(rows, rho_max=3.0, x0=1)


class TestSpecValidation:
    def test_row_count_checked(self):
        with pytest.raises(SpecError):
            MarkovFamilySpec.create([[0.0], [1.0], [1.0]], rho_max=2.0, x0=1)

    def test_x0_in_alphabet(self):
        with pytest.raises(SpecError, match="x0"):
            MarkovFamilySpec.create([[0.0], [1.0], [1.0], [0.0]], rho_max=2.0, x0=3)

    def test_row_normalization_enforced_naming_state(self):
        with pytest.raises(SpecError, match="state 2"):
            MarkovFamilySpec.create([[0.0], [1.0], [0.5], [0.0]], rho_max=2.0, x0=1)
        # row log-sums within 1e-10 of each other are still unequal
        with pytest.raises(SpecError, match="state 2"):
            MarkovFamilySpec.create([[0.0], [1.0], [1.0000000001], [0.0]], rho_max=3.0, x0=1)

    def test_flip_family_valid(self, flip_markov):
        assert flip_markov.d == 1 and flip_markov.x0 == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected_by_both_spec_types(self, bernoulli, flip_markov, bad):
        for spec in (bernoulli, flip_markov):
            with pytest.raises(SpecError, match="non-finite"):
                spec.check_theta([bad])
        index = markov_type_index(flip_markov, 6, Grid.create(n=6, s=1.0, d=1))
        with pytest.raises(SpecError, match="non-finite"):
            markov_class_masses(index, [bad])


class TestTransitionMatrix:
    def test_uniform_at_zero(self, flip_markov, circulant3):
        assert np.allclose(transition_matrix(flip_markov, [0.0]), 0.5)
        assert np.allclose(transition_matrix(circulant3, [0.0, 0.0]), 1 / 3)

    def test_flip_probability(self, flip_markov):
        p = transition_matrix(flip_markov, [1.0])
        assert p[0, 1] == pytest.approx(2 / 3, abs=1e-14)
        assert p[1, 0] == pytest.approx(2 / 3, abs=1e-14)

    def test_rows_sum_to_one(self, circulant3):
        rng = np.random.default_rng(4)
        for _ in range(20):
            th = rng.normal(size=2)
            th *= min(1.0, 2.9 / np.linalg.norm(th))
            p = transition_matrix(circulant3, th)
            assert np.abs(p.sum(axis=1) - 1).max() <= 1e-12


class TestStationary:
    def test_flip_chain_half_half(self, flip_markov):
        pi = stationary_dist(transition_matrix(flip_markov, [1.3]))
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_doubly_stochastic_uniform(self):
        p = np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
        assert stationary_dist(p) == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_random_chain_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet([1.0] * 3, size=3)
            pi = stationary_dist(p)
            assert np.abs(pi @ p - pi).max() <= 1e-12

    def test_reducible_rejected(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="reducible"):
            stationary_dist(p)

    @given(st.integers(1, 6).flatmap(
        lambda m: st.lists(st.booleans(), min_size=m * m, max_size=m * m)))
    @settings(max_examples=400, deadline=None)
    def test_irreducible_iff_every_state_reaches_every_other(self, pattern):
        m = math.isqrt(len(pattern))
        adj = np.array(pattern).reshape(m, m)
        if _reaches_all(adj):
            _check_irreducible(adj.astype(float))
        else:
            with pytest.raises(ValueError, match="chain is reducible"):
                _check_irreducible(adj.astype(float))


def _reaches_all(adj) -> bool:
    """A depth-first search from every state over the zero pattern ``adj``."""
    m = len(adj)
    for start in range(m):
        seen, stack = {start}, [start]
        while stack:
            a = stack.pop()
            for b in range(m):
                if adj[a][b] and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if len(seen) < m:
            return False
    return True


class TestRates:
    def test_uniform_rows_log_alphabet(self, flip_markov, circulant3):
        assert entropy_rate(flip_markov, [0.0]) == pytest.approx(1.0, abs=1e-12)
        assert entropy_rate(circulant3, [0.0, 0.0]) == pytest.approx(
            math.log2(3), abs=1e-12)

    def test_flip_chain_entropy(self, flip_markov):
        assert entropy_rate(flip_markov, [1.0]) == pytest.approx(
            binary_entropy(2 / 3), abs=1e-12)

    def test_uniform_varentropy_zero(self, flip_markov):
        assert varentropy_rate(flip_markov, [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_iid_embedding_reduces_to_iid_varentropy(self):
        # identical rows: the chain is an i.i.d. source in disguise
        fam = MarkovFamilySpec.create([[0.0], [1.0], [0.0], [1.0]], rho_max=3.0, x0=1)
        p = transition_matrix(fam, [1.0])
        assert np.allclose(p[0], p[1])
        q = p[0]
        info = -np.log2(q)
        expected = float(q @ info**2 - (q @ info) ** 2)
        assert varentropy_rate(fam, [1.0]) == pytest.approx(expected, abs=1e-12)

    def test_entropy_rate_matches_exhaustive_n12(self, flip_markov):
        n = 12
        stats = _exhaustive_stats(flip_markov, n)
        th = np.array([1.0])
        logp = stats @ th - n * flip_markov.psi(th)
        w = np.exp2(logp)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
        exhaustive = float(-(w @ logp)) / n
        assert abs(exhaustive - entropy_rate(flip_markov, th)) <= 0.02

    def test_varentropy_matches_exhaustive_extrapolation(self, flip_markov):
        th = np.array([1.0])
        per_n = {}
        for n in (10, 12, 14):
            stats = _exhaustive_stats(flip_markov, n)
            logp = stats @ th - n * flip_markov.psi(th)
            w = np.exp2(logp)
            mean = float(-(w @ logp))
            per_n[n] = float(w @ (-logp - mean) ** 2) / n
        # variance rate per step is already flat for this chain; use the
        # largest-n value as the extrapolated limit
        limit = per_n[14]
        rate = varentropy_rate(flip_markov, th)
        assert abs(rate - limit) / rate <= 0.02

    def test_additive_variance_general_chain(self):
        # brute force over weighted paths for a chain with real memory
        p = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        pi = stationary_dist(p)
        g = -np.log2(p)
        predicted = additive_variance(p, pi, g)
        vals = {}
        for n in (10, 12, 14):
            total = 0.0
            second = 0.0
            m = 3
            ids = np.arange(m ** n)
            digits = np.stack([(ids // (m ** (n - 1 - i))) % m for i in range(n)], axis=1)
            w = pi[digits[:, 0]].astype(float)
            acc = np.zeros(len(ids))
            for i in range(1, n):
                w = w * p[digits[:, i - 1], digits[:, i]]
                acc += g[digits[:, i - 1], digits[:, i]]
            mean = float(w @ acc)
            var = float(w @ (acc - mean) ** 2)
            vals[n] = var / (n - 1)
        # Richardson-style: var_n/n = sigma2 + c/n; extrapolate linearly in 1/n
        x = np.array([1 / 9, 1 / 11, 1 / 13])
        y = np.array([vals[10], vals[12], vals[14]])
        slope, intercept = np.polyfit(x, y, 1)
        assert abs(intercept - predicted) / predicted <= 0.02


def _exhaustive_stats(mspec, n):
    from tscode.markov import _all_path_stats
    return _all_path_stats(mspec, n)


class TestMarkovTypeIndex:
    def test_n1_classes_by_first_step(self, flip_markov):
        idx = markov_type_index(flip_markov, 1, Grid.create(n=1, s=1.0, d=1))
        assert sum(idx.sizes) == 2
        assert len(idx.sizes) == 2  # stay vs flip from x0

    def test_flip_counts_are_binomial(self, flip_markov):
        n = 12
        idx = markov_type_index(flip_markov, n, Grid.create(n=n, s=1.0, d=1))
        assert sorted(idx.sizes) == sorted(
            math.comb(n, k) for k in range(n + 1))

    def test_partition(self, circulant3):
        idx = markov_type_index(circulant3, 6, Grid.create(n=6, s=1.0, d=2))
        assert sum(idx.sizes) == 3 ** 6

    def test_budget_error_suggests_raising_the_budget(self, flip_markov):
        with pytest.raises(BudgetError,
                           match=r"2\^24 items but the budget is 1000 \(raise --budget\)"):
            markov_type_index(flip_markov, 24, Grid.create(n=24, s=1.0, d=1), budget=1000)

    def test_budget_rejects_huge_n_without_forming_the_power(self, flip_markov):
        n = 10 ** 6
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"2\^1000000 .*--budget\)"):
            markov_type_index(flip_markov, n, Grid.create(n=n, s=1.0, d=1))
        assert time.perf_counter() - start < 1.0

    def test_path_probability_factorization(self, circulant3):
        rng = np.random.default_rng(6)
        n = 9
        idx = markov_type_index(circulant3, n, Grid.create(n=n, s=1.0, d=2))
        for _ in range(30):
            th = rng.normal(size=2)
            th *= min(1.0, 2.5 / np.linalg.norm(th))
            xs = tuple(int(v) for v in rng.integers(1, 4, size=n))
            p = transition_matrix(circulant3, th)
            prev = circulant3.x0
            direct = 0.0
            for x in xs:
                direct += math.log2(p[prev - 1, x - 1])
                prev = x
            stat = idx.member_stats[idx.members[idx.locate(xs)[0]]]
            closed = float(stat @ th) - n * circulant3.psi(th)
            assert abs(direct - closed) <= 1e-9 * n


class TestMarkovCodec:
    def test_round_trip_exhaustive(self, flip_markov):
        for n in (4, 8):
            idx = markov_type_index(flip_markov, n, Grid.create(n=n, s=1.0, d=1))
            o = ClassOrdering(idx)
            seen = set()
            for xs in product((1, 2), repeat=n):
                r = o.rank(xs)
                assert o.unrank(r) == xs
                assert o.decode(o.encode(xs)) == xs
                seen.add(r)
            assert seen == set(range(2 ** n))

    def test_size_monotone_lengths(self, flip_markov):
        n = 8
        idx = markov_type_index(flip_markov, n, Grid.create(n=n, s=1.0, d=1))
        o = ClassOrdering(idx)
        pairs = [(o.index.sizes[class_id(o.index, xs)], o.encode(xs).length)
                 for xs in product((1, 2), repeat=n)]
        for s1, l1 in pairs:
            for s2, l2 in pairs:
                if s1 < s2:
                    assert l1 <= l2

    def test_masses_sum_to_one(self, circulant3):
        idx = markov_type_index(circulant3, 7, Grid.create(n=7, s=1.0, d=2))
        masses = markov_class_masses(idx, np.array([0.7, -0.2]))
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_m_eps_keep_all_at_tiny_epsilon(self, flip_markov):
        idx = markov_type_index(flip_markov, 8, Grid.create(n=8, s=1.0, d=1))
        rep = markov_m_eps(idx, np.array([1.0]), 1e-9)
        assert rep.M == 2 ** 8
        assert m_eps(SourceSpec(flip_markov, (1.0,)), idx, 1e-9).rate == 1.0


class TestMarkovFit:
    def test_flip_family_slope_band(self, flip_markov):
        # diagnostic-scale slope: d=1 target is -0.5 with wide residuals; the
        # ceil() quantization of log2 M needs a low-entropy model and a loose
        # epsilon before the log-n signal shows at exhaustive blocklengths.
        # Everything here is deterministic, so the band is stable.
        rep = third_order_fit(SourceSpec(flip_markov, (2.5,)),
                              [8, 10, 12, 14, 16, 18, 20], 0.4, mode="markov")
        assert -0.85 <= rep.slope <= -0.15
        assert len(rep.points) == 7
        assert max(abs(r) for r in rep.residuals) < 1.5

    def test_requires_three_points(self, flip_markov):
        with pytest.raises(ValueError):
            third_order_fit(SourceSpec(flip_markov, (1.0,)), [8, 10], 0.1, mode="markov")
