import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from tscode.errors import SpecError
from tscode.family import FamilySpec, evaluate, mle_batch
from tscode.pointtypes import ExactStatMap, derive_lattice, point_type_index
from tscode.quantized import Grid
from conftest import class_id, lattice_key

SQRT2 = math.sqrt(2.0)


def _centers_by_key(spec, lmap, n):
    """Each class key of the point index at blocklength n with its center,
    tau(1) + recon (key / n), as the index derives it from the key."""
    idx = point_type_index(spec, lmap, n)
    return {tuple(k): c for k, c in zip(idx.keys.tolist(), idx.centers.tolist())}


def _class_with_key(idx, key):
    return int(np.flatnonzero((idx.keys == key).all(axis=1))[0])


def _f0_rates(spec, lmap, idx, c=0.0):
    """The per-symbol point-class size rate at every class center of a point
    index, from one mle_batch solve: -(<theta_hat, tau> - psi(theta_hat))
    - (d'/2n) log2(2 pi n) + c/n."""
    theta, psi = mle_batch(spec, idx.centers)
    n = idx.n
    return (psi - np.einsum("ij,ij->i", theta, idx.centers)
            - lmap.d_prime / (2 * n) * math.log2(2 * math.pi * n) + c / n)


class TestDeriveLattice:
    def test_bernoulli_rational(self, bernoulli):
        lmap = derive_lattice(ExactStatMap.from_rational_tau(bernoulli))
        assert lmap.d_prime == 1
        assert lmap.L == ((0,), (1,))

    def test_sqrt2_witness_has_larger_lattice_dimension(self, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        assert lmap.d_prime == 2
        assert lmap.L == ((0, 0), (1, 0), (0, 1))
        assert lmap.row_selection == (0, 1)
        assert lmap.recon == ((Fraction(1), Fraction(SQRT2)),)

    def test_full_ternary_rational(self, ternary):
        lmap = derive_lattice(ExactStatMap.from_rational_tau(ternary))
        assert lmap.d_prime == 2 == ternary.d

    def test_denominators_cleared(self):
        fam = FamilySpec.create([[0.0], [0.5], [0.75]], rho_max=2.0)
        lmap = derive_lattice(ExactStatMap.from_rational_tau(fam))
        assert lmap.d_prime == 1
        assert lmap.L == ((0,), (2,), (3,))

    def test_coupled_rational_table_reconstructs_exactly(self):
        # pivots other than 1 and columns that couple: every step of the
        # elimination must run to recover tau from L
        tau = [[0.0, 0.0], [0.5, 1.0], [1.0, 0.75], [1.0, 1.0]]
        fam = FamilySpec.create(tau, rho_max=2.0)
        lmap = derive_lattice(ExactStatMap.from_rational_tau(fam))
        assert lmap.L == ((0, 0), (1, 4), (2, 3), (2, 4))
        assert lmap.recon == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 4)))
        # at n = 1 each symbol is a class, keyed L(x) and centered at tau(x)
        assert _centers_by_key(fam, lmap, 1) == {lmap.L[x]: expect for x, expect in enumerate(tau)}

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
        lmap = derive_lattice(sm)
        assert lmap.d_prime == 1
        assert lmap.L == ((0,), (1,), (2,))

    def test_reconstruction_matches_statistics(self, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        centers = _centers_by_key(sqrt2_statmap.spec, lmap, 1)
        for x, expect in enumerate([0.0, 1.0, SQRT2]):
            assert centers[lmap.L[x]][0] == pytest.approx(expect, abs=1e-12)

    def test_more_symbols_than_lattice_dimensions(self):
        # tau = (0, 1, sqrt2, 1+sqrt2): four symbols on a two-dimensional
        # lattice, consistent only up to the rounding of 1 + sqrt2
        taus = [0.0, 1.0, SQRT2, 1 + SQRT2]
        fam = FamilySpec.create([[t] for t in taus], rho_max=3.0)
        lmap = derive_lattice(ExactStatMap(
            spec=fam,
            basis_names=(("1", "sqrt2"),),
            basis_hints=((1.0, SQRT2),),
            coeffs=(((Fraction(0), Fraction(0)),),
                    ((Fraction(1), Fraction(0)),),
                    ((Fraction(0), Fraction(1)),),
                    ((Fraction(1), Fraction(1)),)),
        ))
        assert lmap.d_prime == 2
        assert lmap.L == ((0, 0), (1, 0), (0, 1), (1, 1))
        centers = _centers_by_key(fam, lmap, 1)
        for x, expect in enumerate(taus):
            assert centers[lmap.L[x]][0] == pytest.approx(expect, abs=1e-12)

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
        lmap = derive_lattice(sqrt2_statmap)
        idx = point_type_index(sqrt2_family, lmap, 7)
        assert lattice_key(lmap, [1] * 7) == tuple(idx.keys[class_id(idx, [1] * 7)]) == (0, 0)

    def test_order_invariance(self, sqrt2_family, sqrt2_statmap):
        idx = point_type_index(sqrt2_family, derive_lattice(sqrt2_statmap), 2)
        assert class_id(idx, (1, 2)) == class_id(idx, (2, 1))

    def test_nine_sequences_six_classes(self, sqrt2_family, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        classes = {lattice_key(lmap, xs) for xs in product((1, 2, 3), repeat=2)}
        assert len(classes) == 6
        assert classes == set(map(tuple, point_type_index(sqrt2_family, lmap, 2).keys.tolist()))

    def test_index_bernoulli_matches_compositions(self, bernoulli):
        lmap = derive_lattice(ExactStatMap.from_rational_tau(bernoulli))
        idx = point_type_index(bernoulli, lmap, 4)
        assert sorted(idx.sizes) == [1, 1, 4, 4, 6]

    def test_index_sqrt2_n2(self, sqrt2_family, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        idx = point_type_index(sqrt2_family, lmap, 2)
        assert len(idx.sizes) == 6
        assert sum(idx.sizes) == 9

    def test_full_rank_classes_equal_compositions(self, ternary):
        lmap = derive_lattice(ExactStatMap.from_rational_tau(ternary))
        idx = point_type_index(ternary, lmap, 5)
        assert (np.diff(idx.bounds) == 1).all()
        assert sum(idx.sizes) == 3 ** 5

    def test_partition(self, sqrt2_family, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        for n in (3, 6, 9):
            assert sum(point_type_index(sqrt2_family, lmap, n).sizes) == 3 ** n

    def test_oracle_equivalence(self, sqrt2_family, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        for n in (2, 4, 5):
            idx = point_type_index(sqrt2_family, lmap, n)
            direct: dict[tuple, int] = {}
            for xs in product((1, 2, 3), repeat=n):
                key = lattice_key(lmap, xs)
                direct[key] = direct.get(key, 0) + 1
            assert {tuple(idx.keys[c]): size for c, size in enumerate(idx.sizes)} == direct


class TestEquiprobability:
    def test_same_class_equal_log_probs(self, sqrt2_family, sqrt2_statmap):
        # a sequence of each member has log2 p_theta = counts . log2 pmf, the
        # same for every member of a class at every theta; tau = (0, 1, 2)
        # merges the compositions of equal c2 + 2 c3 into one class
        line = FamilySpec.create([[0.0], [1.0], [2.0]], rho_max=3.0)
        rng = np.random.default_rng(17)
        thetas = rng.uniform(-2.5, 2.5, size=20)
        for fam, lmap in [(sqrt2_family, derive_lattice(sqrt2_statmap)),
                          (line, derive_lattice(ExactStatMap.from_rational_tau(line)))]:
            idx = point_type_index(fam, lmap, 5)
            log2_pmf = np.log2([evaluate(fam, [th]).pmf for th in thetas])
            loglik = idx.member_stats[idx.members] @ log2_pmf.T
            starts = idx.bounds[:-1]
            spread = np.maximum.reduceat(loglik, starts) - np.minimum.reduceat(loglik, starts)
            assert spread.max() <= 1e-10
        assert max(np.diff(idx.bounds)) > 1

    def test_distinct_classes_separated_by_generic_theta(self, sqrt2_family, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        idx = point_type_index(sqrt2_family, lmap, 4)
        rng = np.random.default_rng(18)
        thetas = rng.uniform(-2.5, 2.5, size=20)
        log2_pmf = np.log2([evaluate(sqrt2_family, [th]).pmf for th in thetas])
        loglik = idx.member_stats[idx.members[idx.bounds[:-1]]] @ log2_pmf.T
        gap = np.abs(loglik[:, None, :] - loglik[None, :, :]).max(axis=2)
        assert gap[np.triu_indices(len(loglik), 1)].min() > 1e-6

    def test_refinement_into_quantized_classes(self, sqrt2_family, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        for s in (0.7, 1.0, 2.0):
            n = 6
            grid = Grid.create(n=n, s=s, d=1)
            point_idx = point_type_index(sqrt2_family, lmap, n)
            bounds = point_idx.bounds
            for c in range(len(bounds) - 1):
                cells = {tuple(grid.cell_index((point_idx.member_stats[mem].astype(float)
                                                @ sqrt2_family.tau_array) / n))
                         for mem in point_idx.members[bounds[c]:bounds[c + 1]]}
                assert len(cells) == 1


class TestF0:
    def test_uniform_mean_value(self, sqrt2_family, sqrt2_statmap):
        # the lattice point (1/3, 1/3) is the class of key (4, 4) at n = 12
        lmap = derive_lattice(sqrt2_statmap)
        n = 12
        idx = point_type_index(sqrt2_family, lmap, n)
        val = _f0_rates(sqrt2_family, lmap, idx)[_class_with_key(idx, (4, 4))]
        expected = math.log2(3) - 2 / (2 * n) * math.log2(2 * math.pi * n)
        assert val == pytest.approx(expected, abs=1e-9)

    def test_only_log_terms_change_with_n(self, sqrt2_family, sqrt2_statmap):
        # the lattice point (1/4, 1/4): key (4, 4) at n = 16, (8, 8) at n = 32
        lmap = derive_lattice(sqrt2_statmap)
        f = {}
        for n in (16, 32):
            idx = point_type_index(sqrt2_family, lmap, n)
            f[n] = _f0_rates(sqrt2_family, lmap, idx, c=0.5)[_class_with_key(idx, (n // 4,) * 2)]
        expected = (-(2 / 32) * math.log2(2 * math.pi * 16)
                    + (2 / 64) * math.log2(2 * math.pi * 32) + 0.5 / 32)
        assert f[16] - f[32] == pytest.approx(expected, abs=1e-12)

    def _sandwich_devs(self, fam, lmap, n):
        idx = point_type_index(fam, lmap, n)
        base = n * _f0_rates(fam, lmap, idx)
        return (float((idx.log2_sizes - base).max()), float((base - idx.log2_sizes).max()))

    def test_sandwich_bernoulli_n16(self):
        # n f0(L) - 2C <= log2 |T| <= n f0(L) with a fitted constant
        fam = FamilySpec.create([[0.0], [1.0]], rho_max=4.0)
        lmap = derive_lattice(ExactStatMap.from_rational_tau(fam))
        hi, lo = self._sandwich_devs(fam, lmap, 16)
        c = max(hi, lo / 2, 0.0)
        assert hi <= c + 1e-9 and lo <= 2 * c + 1e-9

    def test_sandwich_constant_uniform_over_n(self):
        # fitted at n=8, the same constant works at n in {16, 32, 64}
        fam = FamilySpec.create([[0.0], [1.0]], rho_max=4.0)
        lmap = derive_lattice(ExactStatMap.from_rational_tau(fam))
        h8, l8 = self._sandwich_devs(fam, lmap, 8)
        c = max(h8, l8 / 2, 0.0)
        for n in (16, 32, 64):
            hi, lo = self._sandwich_devs(fam, lmap, n)
            assert hi <= c + 1e-9, (n, hi, c)
            assert lo <= 2 * c + 1e-9, (n, lo, c)
