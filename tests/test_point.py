import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from tscode.errors import SpecError
from tscode.family import FamilySpec, evaluate, mle_batch
from tscode.pointtypes import ExactStatMap, derive_lattice, point_type_index
from tscode.quantized import Grid
from tscode.typeclass import composition_array
from conftest import class_id, class_stats, lattice_key

SQRT2 = math.sqrt(2.0)
# pivots other than 1 and columns that couple: every step of the elimination
# must run to recover tau from L
COUPLED_TAU = [[0.0, 0.0], [0.5, 1.0], [1.0, 0.75], [1.0, 1.0]]


# the double nearest 0.1, a coefficient of denominator 2^55: L = (0, 2^55, L3)
TENTH = Fraction(0.1)


def _wide_lattice(third=TENTH):
    """tau = (0, 1, ``third``) over the basis {1}: the lattice map clears the
    denominator of ``third`` into symbol 2's entry."""
    spec = FamilySpec.create([[0.0], [1.0], [float(third)]], rho_max=3.0)
    return spec, derive_lattice(ExactStatMap(
        spec=spec, basis_names=(("one",),), basis_hints=((1.0,),),
        coeffs=(((Fraction(0),),), ((Fraction(1),),), ((third,),))))


def _class_with_key(idx, key):
    return int(np.flatnonzero((idx.keys == key).all(axis=1))[0])


def _f0_rates(spec, L, idx, c=0.0):
    """The per-symbol point-class size rate at every class statistic of a point
    index, from one mle_batch solve: -(<theta_hat, tau> - psi(theta_hat))
    - (d'/2n) log2(2 pi n) + c/n."""
    stats = class_stats(idx)
    theta, psi = mle_batch(spec, stats)
    n = idx.n
    return (psi - np.einsum("ij,ij->i", theta, stats)
            - L.shape[1] / (2 * n) * math.log2(2 * math.pi * n) + c / n)


class TestDeriveLattice:
    def test_bernoulli_rational(self, bernoulli):
        L = derive_lattice(ExactStatMap.from_rational_tau(bernoulli))
        assert L.shape[1] == 1
        assert L.tolist() == [[0], [1]]

    def test_sqrt2_witness_has_larger_lattice_dimension(self, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        assert L.shape[1] == 2
        assert L.tolist() == [[0, 0], [1, 0], [0, 1]]

    def test_full_ternary_rational(self, ternary):
        L = derive_lattice(ExactStatMap.from_rational_tau(ternary))
        assert L.shape[1] == 2 == ternary.d

    def test_denominators_cleared(self):
        fam = FamilySpec.create([[0.0], [0.5], [0.75]], rho_max=2.0)
        L = derive_lattice(ExactStatMap.from_rational_tau(fam))
        assert L.shape[1] == 1
        assert L.tolist() == [[0], [2], [3]]

    def test_coupled_rational_table_reconstructs_exactly(self):
        # derive_lattice refuses a map from which tau is not recovered
        # exactly; TestExactStatisticOracle checks the classes it induces
        fam = FamilySpec.create(COUPLED_TAU, rho_max=2.0)
        L = derive_lattice(ExactStatMap.from_rational_tau(fam))
        assert L.tolist() == [[0, 0], [1, 4], [2, 3], [2, 4]]

    def test_lattice_is_a_read_only_int64_matrix(self, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        assert L.dtype == np.int64 and L.shape == (3, 2)
        assert not L[0].any()  # symbol 1 is the offset
        with pytest.raises(ValueError, match="read-only"):
            L[1, 0] = 2

    def test_dependent_rows_reduce_dimension(self):
        # tau = (0, 1+sqrt2, 2+2sqrt2): both basis rows are proportional
        fam = FamilySpec.create([[0.0], [1 + SQRT2], [2 + 2 * SQRT2]], rho_max=2.0)
        sm = ExactStatMap(
            spec=fam,
            basis_names=(("1", "sqrt2"),),
            basis_hints=((1.0, SQRT2),),
            coeffs=(
                ((Fraction(0), Fraction(0)),),
                ((Fraction(1), Fraction(1)),),
                ((Fraction(2), Fraction(2)),),
            ),
        )
        L = derive_lattice(sm)
        assert L.shape[1] == 1
        assert L.tolist() == [[0], [1], [2]]

    def test_more_symbols_than_lattice_dimensions(self):
        # tau = (0, 1, sqrt2, 1+sqrt2): four symbols on a two-dimensional
        # lattice, consistent only up to the rounding of 1 + sqrt2
        taus = [0.0, 1.0, SQRT2, 1 + SQRT2]
        fam = FamilySpec.create([[t] for t in taus], rho_max=3.0)
        L = derive_lattice(ExactStatMap(
            spec=fam,
            basis_names=(("1", "sqrt2"),),
            basis_hints=((1.0, SQRT2),),
            coeffs=(((Fraction(0), Fraction(0)),),
                    ((Fraction(1), Fraction(0)),),
                    ((Fraction(0), Fraction(1)),),
                    ((Fraction(1), Fraction(1)),)),
        ))
        assert L.shape[1] == 2
        assert L.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]

    def test_all_zero_coefficients_rejected_as_trivial(self, sqrt2_family):
        zero = (Fraction(0), Fraction(0))
        with pytest.raises(SpecError, match="lattice map is trivial"):
            derive_lattice(ExactStatMap(
                spec=sqrt2_family,
                basis_names=(("1", "sqrt2"),),
                basis_hints=((1.0, SQRT2),),
                coeffs=((zero,), (zero,), (zero,)),
            ))

    def test_repeated_basis_name_rejected(self, sqrt2_family):
        with pytest.raises(SpecError, match="dependent basis"):
            ExactStatMap(
                spec=sqrt2_family,
                basis_names=(("sqrt2", "sqrt2"),),
                basis_hints=((SQRT2, SQRT2 + 1),),
                coeffs=(((Fraction(0), Fraction(0)),),
                        ((Fraction(1), Fraction(0)),),
                        ((Fraction(0), Fraction(1)),)),
            )

    def test_equal_hints_rejected(self, sqrt2_family):
        with pytest.raises(SpecError, match="dependent basis"):
            ExactStatMap(
                spec=sqrt2_family,
                basis_names=(("a", "b"),),
                basis_hints=((SQRT2, SQRT2),),
                coeffs=(((Fraction(0), Fraction(0)),),
                        ((Fraction(1), Fraction(0)),),
                        ((Fraction(0), Fraction(1)),)),
            )

    def test_nonzero_symbol_one_coeffs_rejected(self, sqrt2_family):
        with pytest.raises(SpecError, match="symbol 1"):
            ExactStatMap(
                spec=sqrt2_family,
                basis_names=(("1", "sqrt2"),),
                basis_hints=((1.0, SQRT2),),
                coeffs=(((Fraction(1), Fraction(0)),),
                        ((Fraction(1), Fraction(0)),),
                        ((Fraction(0), Fraction(1)),)),
            )

    def test_inconsistent_decomposition_rejected(self, sqrt2_family):
        # claims tau(3) = 2 (rational) although the table has sqrt 2
        with pytest.raises(SpecError, match="inconsistent"):
            derive_lattice(ExactStatMap(
                spec=sqrt2_family,
                basis_names=(("1", "sqrt2"),),
                basis_hints=((1.0, SQRT2),),
                coeffs=(((Fraction(0), Fraction(0)),),
                        ((Fraction(1), Fraction(0)),),
                        ((Fraction(2), Fraction(0)),)),
            ))


class TestPointClasses:
    def test_constant_symbol_one_is_zero(self, sqrt2_family, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        idx = point_type_index(sqrt2_family, L, 7)
        assert lattice_key(L, [1] * 7) == tuple(idx.keys[class_id(idx, [1] * 7)]) == (0, 0)

    def test_order_invariance(self, sqrt2_family, sqrt2_statmap):
        idx = point_type_index(sqrt2_family, derive_lattice(sqrt2_statmap), 2)
        assert class_id(idx, (1, 2)) == class_id(idx, (2, 1))

    def test_nine_sequences_six_classes(self, sqrt2_family, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        classes = {lattice_key(L, xs) for xs in product((1, 2, 3), repeat=2)}
        assert len(classes) == 6
        assert classes == set(map(tuple, point_type_index(sqrt2_family, L, 2).keys.tolist()))

    def test_index_bernoulli_matches_compositions(self, bernoulli):
        L = derive_lattice(ExactStatMap.from_rational_tau(bernoulli))
        idx = point_type_index(bernoulli, L, 4)
        assert sorted(idx.sizes) == [1, 1, 4, 4, 6]

    def test_index_sqrt2_n2(self, sqrt2_family, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        idx = point_type_index(sqrt2_family, L, 2)
        assert len(idx.sizes) == 6
        assert sum(idx.sizes) == 9

    def test_full_rank_classes_equal_compositions(self, ternary):
        L = derive_lattice(ExactStatMap.from_rational_tau(ternary))
        idx = point_type_index(ternary, L, 5)
        assert (np.diff(idx.bounds) == 1).all()
        assert sum(idx.sizes) == 3 ** 5

    def test_partition(self, sqrt2_family, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        for n in (3, 6, 9):
            assert sum(point_type_index(sqrt2_family, L, n).sizes) == 3 ** n

    def test_oracle_equivalence(self, sqrt2_family, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        for n in (2, 4, 5):
            idx = point_type_index(sqrt2_family, L, n)
            direct: dict[tuple, int] = {}
            for xs in product((1, 2, 3), repeat=n):
                key = lattice_key(L, xs)
                direct[key] = direct.get(key, 0) + 1
            assert {tuple(idx.keys[c]): size for c, size in enumerate(idx.sizes)} == direct


def _rational_case(tau):
    """A family with a rational table, its stat map over the basis {1}, and
    each symbol's exact statistic as Fractions of the table."""
    fam = FamilySpec.create(tau, rho_max=2.0)
    return ExactStatMap.from_rational_tau(fam), [tuple(map(Fraction, row)) for row in tau]


def _q_sqrt2_case(pairs):
    """The d = 1 family tau(x) = a + b sqrt2 over (a, b) in ``pairs``, its
    declared stat map over the basis {1, sqrt2}, and each symbol's exact
    statistic in Q(sqrt2) as its coefficient pair (1 and sqrt2 are
    independent over Q, so equal statistics are equal pairs)."""
    fam = FamilySpec.create([[a + b * SQRT2] for a, b in pairs], rho_max=3.0)
    stat_map = ExactStatMap(spec=fam, basis_names=(("1", "sqrt2"),), basis_hints=((1.0, SQRT2),),
                            coeffs=tuple(((Fraction(a), Fraction(b)),) for a, b in pairs))
    return stat_map, [(Fraction(a), Fraction(b)) for a, b in pairs]


ORACLE_CASES = {
    "coupled rational": lambda: _rational_case(COUPLED_TAU),
    "ternary": lambda: _rational_case([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "sqrt2": lambda: _q_sqrt2_case([(0, 0), (1, 0), (0, 1)]),
    # four symbols on a two-dimensional lattice: 1 + sqrt2 merges classes
    "1 + sqrt2": lambda: _q_sqrt2_case([(0, 0), (1, 0), (0, 1), (1, 1)]),
    # proportional basis rows: the elimination keeps one, d_prime = 1
    "dependent rows": lambda: _q_sqrt2_case([(0, 0), (1, 1), (2, 2)]),
}


class TestExactStatisticOracle:
    """The point classes against exact arithmetic that never forms L: the
    compositions grouped by their exact statistic, from the declared table."""

    @staticmethod
    def _exact_groups(exact_rows, n):
        groups: dict[tuple, list[int]] = {}
        for member, counts in enumerate(composition_array(n, len(exact_rows)).tolist()):
            stat = tuple(sum(c * row[j] for c, row in zip(counts, exact_rows)) / n
                         for j in range(len(exact_rows[0])))
            groups.setdefault(stat, []).append(member)
        return sorted(groups.values())

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_classes_are_the_exact_statistic_groups(self, case):
        stat_map, exact_rows = ORACLE_CASES[case]()
        L = derive_lattice(stat_map)
        merged = False
        for n in range(1, 9):
            idx = point_type_index(stat_map.spec, L, n)
            bounds = idx.bounds.tolist()
            classes = sorted(idx.members[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:]))
            assert classes == self._exact_groups(exact_rows, n)
            merged = merged or len(classes) < len(idx.member_class)
        # only the ternary and sqrt2 statistics are injective on compositions
        assert merged == (case not in ("ternary", "sqrt2"))


class TestEquiprobability:
    def test_same_class_equal_log_probs(self, sqrt2_family, sqrt2_statmap):
        # a sequence of each member has log2 p_theta = counts . log2 pmf, the
        # same for every member of a class at every theta; tau = (0, 1, 2)
        # merges the compositions of equal c2 + 2 c3 into one class
        line = FamilySpec.create([[0.0], [1.0], [2.0]], rho_max=3.0)
        rng = np.random.default_rng(17)
        thetas = rng.uniform(-2.5, 2.5, size=20)
        for fam, L in [(sqrt2_family, derive_lattice(sqrt2_statmap)),
                          (line, derive_lattice(ExactStatMap.from_rational_tau(line)))]:
            idx = point_type_index(fam, L, 5)
            log2_pmf = np.log2([evaluate(fam, [th]).pmf for th in thetas])
            loglik = idx.member_stats[idx.members] @ log2_pmf.T
            starts = idx.bounds[:-1]
            spread = np.maximum.reduceat(loglik, starts) - np.minimum.reduceat(loglik, starts)
            assert spread.max() <= 1e-10
        assert max(np.diff(idx.bounds)) > 1

    def test_distinct_classes_separated_by_generic_theta(self, sqrt2_family, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        idx = point_type_index(sqrt2_family, L, 4)
        rng = np.random.default_rng(18)
        thetas = rng.uniform(-2.5, 2.5, size=20)
        log2_pmf = np.log2([evaluate(sqrt2_family, [th]).pmf for th in thetas])
        loglik = idx.member_stats[idx.members[idx.bounds[:-1]]] @ log2_pmf.T
        gap = np.abs(loglik[:, None, :] - loglik[None, :, :]).max(axis=2)
        assert gap[np.triu_indices(len(loglik), 1)].min() > 1e-6

    def test_refinement_into_quantized_classes(self, sqrt2_family, sqrt2_statmap):
        L = derive_lattice(sqrt2_statmap)
        for s in (0.7, 1.0, 2.0):
            n = 6
            grid = Grid.create(n=n, s=s, d=1)
            point_idx = point_type_index(sqrt2_family, L, n)
            bounds = point_idx.bounds
            for c in range(len(bounds) - 1):
                cells = {tuple(grid.cell_index((point_idx.member_stats[mem].astype(float)
                                                @ sqrt2_family.tau_array) / n))
                         for mem in point_idx.members[bounds[c]:bounds[c + 1]]}
                assert len(cells) == 1


class TestF0:
    def test_uniform_mean_value(self, sqrt2_family, sqrt2_statmap):
        # the lattice point (1/3, 1/3) is the class of key (4, 4) at n = 12
        L = derive_lattice(sqrt2_statmap)
        n = 12
        idx = point_type_index(sqrt2_family, L, n)
        val = _f0_rates(sqrt2_family, L, idx)[_class_with_key(idx, (4, 4))]
        expected = math.log2(3) - 2 / (2 * n) * math.log2(2 * math.pi * n)
        assert val == pytest.approx(expected, abs=1e-9)

    def test_only_log_terms_change_with_n(self, sqrt2_family, sqrt2_statmap):
        # the lattice point (1/4, 1/4): key (4, 4) at n = 16, (8, 8) at n = 32
        L = derive_lattice(sqrt2_statmap)
        f = {}
        for n in (16, 32):
            idx = point_type_index(sqrt2_family, L, n)
            f[n] = _f0_rates(sqrt2_family, L, idx, c=0.5)[_class_with_key(idx, (n // 4,) * 2)]
        expected = (-(2 / 32) * math.log2(2 * math.pi * 16)
                    + (2 / 64) * math.log2(2 * math.pi * 32) + 0.5 / 32)
        assert f[16] - f[32] == pytest.approx(expected, abs=1e-12)

    def _sandwich_devs(self, fam, L, n):
        idx = point_type_index(fam, L, n)
        base = n * _f0_rates(fam, L, idx)
        return (float((idx.log2_sizes - base).max()), float((base - idx.log2_sizes).max()))

    def test_sandwich_bernoulli_n16(self):
        # n f0(L) - 2C <= log2 |T| <= n f0(L) with a fitted constant
        fam = FamilySpec.create([[0.0], [1.0]], rho_max=4.0)
        L = derive_lattice(ExactStatMap.from_rational_tau(fam))
        hi, lo = self._sandwich_devs(fam, L, 16)
        c = max(hi, lo / 2, 0.0)
        assert hi <= c + 1e-9 and lo <= 2 * c + 1e-9

    def test_sandwich_constant_uniform_over_n(self):
        # fitted at n=8, the same constant works at n in {16, 32, 64}
        fam = FamilySpec.create([[0.0], [1.0]], rho_max=4.0)
        L = derive_lattice(ExactStatMap.from_rational_tau(fam))
        h8, l8 = self._sandwich_devs(fam, L, 8)
        c = max(h8, l8 / 2, 0.0)
        for n in (16, 32, 64):
            hi, lo = self._sandwich_devs(fam, L, n)
            assert hi <= c + 1e-9, (n, hi, c)
            assert lo <= 2 * c + 1e-9, (n, lo, c)


class TestLatticeKeyRange:
    def test_wide_lattice_map(self):
        _, L = _wide_lattice()
        assert L.tolist() == [[0], [2 ** 55], [TENTH.numerator]]

    def test_largest_blocklength_in_range_keeps_exact_keys(self):
        # 255 * 2^55 < 2^63: every key fits, and every composition is its own
        # exact lattice point (L3 is odd, so c2 2^55 + c3 L3 never collides)
        spec, L = _wide_lattice()
        n = 255
        idx = point_type_index(spec, L, n)
        exact = sorted((c2 * 2 ** 55 + c3 * TENTH.numerator,)
                       for _, c2, c3 in composition_array(n, 3).tolist())
        assert sorted(map(tuple, idx.keys.tolist())) == exact
        assert len(exact) == len(set(exact))

    @pytest.mark.parametrize("n", [256, 300, 700])
    def test_keys_past_int64_are_refused(self, n):
        # these n once wrapped around int64: at n = 700 228,096 classes for
        # 246,051 lattice points
        spec, L = _wide_lattice()
        with pytest.raises(SpecError, match=f"out of int64 range at n={n}"):
            point_type_index(spec, L, n)

    def test_key_range_is_checked_before_the_budget(self):
        spec, L = _wide_lattice()
        with pytest.raises(SpecError, match="out of int64 range at n=700"):
            point_type_index(spec, L, 700, budget=1)

    def test_lattice_entry_past_int64_is_refused(self):
        # an entry of 10^23 (symbol 2's, which clears the denominator of
        # 10^-23) does not fit an int64 row of L, so no blocklength is indexed
        with pytest.raises(SpecError, match="at every n: the largest [|]L[|] entry has 77 bits"):
            _wide_lattice(Fraction(1, 10 ** 23))
