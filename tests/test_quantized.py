import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tscode.typeclass
from tscode.errors import BudgetError, SpecError
from tscode.family import FamilySpec, suffstat
from tscode.quantized import Grid, build_type_index, cuboid_center_of, f_of, r_of
from tscode.typeclass import (
    colex_rank,
    composition_array,
    composition_count,
    multinomial,
    multiset_sizes,
)


class TestGrid:
    def test_side_is_s_over_n(self):
        g = Grid.create(n=8, s=2.0, d=1)
        assert g.side == 0.25

    def test_invalid_parameters(self):
        with pytest.raises(SpecError):
            Grid.create(n=0, s=1.0, d=1)
        with pytest.raises(SpecError):
            Grid.create(n=4, s=0.0, d=1)
        with pytest.raises(SpecError):
            Grid(n=4, s=1.0, d=2, anchor=(0.0,))

    def test_non_finite_anchor_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SpecError, match="anchor must be finite"):
                Grid.create(n=4, s=1.0, d=2, anchor=(bad, 0.0))

    def test_cell_index_must_fit_int64(self):
        g = Grid.create(n=1, s=1.0, d=1)
        assert g.cell_index([[2.0 ** 62], [-2.0 ** 62]]).tolist() == [[2 ** 62], [-2 ** 62]]
        for far in (2.0 ** 63, -2.0 ** 64, 1e300):
            with pytest.raises(SpecError, match="out of int64 range"):
                g.cell_index([[0.0], [far]])
        # side 2.5e-301: the statistic 1 lies about 4e300 cells from the anchor
        tiny = Grid.create(n=4, s=1e-300, d=1)
        assert tiny.cell_index([0.0]).tolist() == [0]
        with pytest.raises(SpecError, match="out of int64 range"):
            tiny.cell_index([1.0])
        with pytest.raises(SpecError, match="out of int64 range"):
            Grid.create(n=4, s=1.0, d=1, anchor=(1e300,)).cell_index([0.5])


class TestCuboidCenter:
    def test_anchor_maps_to_itself(self):
        g = Grid.create(n=4, s=1.0, d=2, anchor=(0.25, -1.0))
        assert cuboid_center_of(g, [0.25, -1.0]) == pytest.approx([0.25, -1.0])

    def test_half_open_boundary_inclusive_high_side(self):
        g = Grid.create(n=4, s=1.0, d=1)  # side 0.25, boundary at 0.125
        assert cuboid_center_of(g, [0.125]) == pytest.approx([0.0])
        assert cuboid_center_of(g, [0.1251]) == pytest.approx([0.25])
        assert cuboid_center_of(g, [-0.125]) == pytest.approx([-0.25])

    def test_idempotent(self):
        g = Grid.create(n=7, s=1.3, d=2, anchor=(0.1, 0.2))
        rng = np.random.default_rng(0)
        for _ in range(200):
            tau = rng.normal(size=2) * 3
            c = cuboid_center_of(g, tau)
            assert cuboid_center_of(g, c) == pytest.approx(c, abs=0)

    @given(st.floats(-5, 5), st.floats(0.2, 3.0), st.integers(2, 50), st.floats(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_containment(self, tau, s, n, anchor):
        g = Grid.create(n=n, s=s, d=1, anchor=(anchor,))
        c = cuboid_center_of(g, [tau])[0]
        z = tau - c
        assert -g.side / 2 - 1e-9 < z <= g.side / 2 + 1e-9


class TestCompositions:
    def test_colex_rank_inverts_composition_array(self):
        for n, m in [(0, 2), (0, 4), (1, 3), (4, 2), (3, 3), (5, 4), (7, 5), (12, 3)]:
            rows = composition_array(n, m).tolist()
            assert len(rows) == composition_count(n, m)
            assert [colex_rank(row) for row in rows] == list(range(len(rows)))

    def test_colex_order_binary(self):
        assert composition_array(4, 2).tolist() == [[4, 0], [3, 1], [2, 2], [1, 3], [0, 4]]

    def test_array_is_every_composition_in_colex_order(self):
        for n, m in [(0, 3), (4, 2), (3, 3), (5, 4)]:
            rows = [tuple(r) for r in composition_array(n, m).tolist()]
            every = [c for c in product(range(n + 1), repeat=m) if sum(c) == n]
            assert sorted(rows) == every
            assert rows == sorted(rows, key=lambda c: c[::-1])

    def test_multinomials_align_with_enumeration(self):
        assert multinomial((2, 3, 1)) == 60
        cases = [(m, n) for m in range(1, 6) for n in range(9)]
        # blocks whose least k is above 0, each first size carried from the
        # block before, and for m = 4 several a_3 each starting afresh
        cases += [(m, n) for m in (2, 3, 4) for n in (17, 30, 33)]
        for m, n in cases:
            comps = composition_array(n, m)
            values, rows = multiset_sizes(comps)
            sizes = [values[r] for r in rows.tolist()]
            assert sizes == [multinomial(c) for c in comps.tolist()]
            assert sum(sizes) == m ** n
            # one row per count multiset
            assert len(values) == len({tuple(sorted(c)) for c in comps.tolist()})
        values, rows = multiset_sizes(composition_array(1024, 3))
        assert sum(values[r] for r in rows.tolist()) == 3 ** 1024

    def test_equal_multisets_share_one_int(self, ternary):
        n = 40
        index = build_type_index(ternary, n, Grid.create(n=n, s=1.0, d=2))
        objects = {}
        for member, size in zip(index.members.tolist(), index.grouped_sizes):
            multiset = tuple(sorted(index.member_stats[member].tolist()))
            objects.setdefault(multiset, set()).add(id(size))
        assert len(objects) == len(multiset_sizes(composition_array(n, 3))[0])
        assert all(len(ids) == 1 for ids in objects.values())
        # every class here is one composition, and shares that member's int
        assert all(size is index.grouped_sizes[index.bounds[c]]
                   for c, size in enumerate(index.sizes))


class TestBuildTypeIndex:
    def test_single_cuboid_when_s_large(self, bernoulli):
        idx = build_type_index(bernoulli, 4, Grid.create(n=4, s=100.0, d=1))
        assert len(idx.sizes) == 1
        assert idx.sizes[0] == 16

    def test_per_composition_grid_binomials(self, bernoulli):
        idx = build_type_index(bernoulli, 4, Grid.create(n=4, s=1.0, d=1))
        assert sorted(idx.sizes) == [1, 1, 4, 4, 6]
        assert sum(idx.sizes) == 16

    def test_ternary_per_composition(self, ternary):
        idx = build_type_index(ternary, 3, Grid.create(n=3, s=1.0, d=2))
        assert len(idx.sizes) == 10
        assert sum(idx.sizes) == 27

    def test_partition_sums_to_total(self, ternary):
        for n in (2, 5, 8):
            for s in (0.5, 1.0, 2.3):
                idx = build_type_index(ternary, n, Grid.create(n=n, s=s, d=2))
                assert sum(idx.sizes) == 3 ** n

    def test_brute_force_oracle(self, bernoulli, ternary):
        # group all sequences directly by the cuboid of their statistic
        for fam, m in [(bernoulli, 2), (ternary, 3)]:
            for n in (2, 4, 6):
                for s, anchor in [(1.0, None), (0.7, None), (2.0, (0.1,) * fam.d)]:
                    g = Grid.create(n=n, s=s, d=fam.d, anchor=anchor)
                    idx = build_type_index(fam, n, g)
                    direct: dict[tuple, int] = {}
                    for xs in product(range(1, m + 1), repeat=n):
                        key = tuple(g.cell_index(suffstat(fam, xs)))
                        direct[key] = direct.get(key, 0) + 1
                    assert {tuple(idx.keys[c]): size for c, size in enumerate(idx.sizes)} == direct

    def test_brute_force_oracle_full_range(self, bernoulli, ternary):
        # the same check at the largest stated scale (n = 10), with the
        # per-sequence statistics computed by direct vectorized enumeration
        for fam, m, n in [(bernoulli, 2, 10), (ternary, 3, 10)]:
            g = Grid.create(n=n, s=0.8, d=fam.d, anchor=(0.05,) * fam.d)
            idx = build_type_index(fam, n, g)
            total = m ** n
            ids = np.arange(total)
            stats = np.zeros((total, fam.d))
            for i in range(n):
                digit = (ids // (m ** (n - 1 - i))) % m
                stats += fam.tau_array[digit]
            keys = g.cell_index(stats / n)
            uniq, counts = np.unique(keys, axis=0, return_counts=True)
            direct = {tuple(int(v) for v in row): int(c)
                      for row, c in zip(uniq, counts)}
            assert {tuple(idx.keys[c]): size for c, size in enumerate(idx.sizes)} == direct

    def test_class_keys_match_the_matmul_statistics(self, ternary, sqrt2_family):
        # the builder's BLAS-free product gives every composition the cell
        # that the float matmul of its counts and tau gives
        wide = [FamilySpec.create([[0.0], [1.0]], rho_max=14.0),
                FamilySpec.create(list(ternary.tau), rho_max=14.0)]
        for fam, ns in [(ternary, (64, 300)), (sqrt2_family, (64, 512, 1024)),
                        (wide[0], (8, 1024)), (wide[1], (8, 64))]:
            for n in ns:
                comps = composition_array(n, fam.alphabet.size)
                for s, anchor in [(0.5, None), (1.0, None), (2.0, (0.1,) * fam.d)]:
                    g = Grid.create(n=n, s=s, d=fam.d, anchor=anchor)
                    idx = build_type_index(fam, n, g)
                    ref = g.cell_index((comps.astype(float) @ fam.tau_array) / n)
                    assert np.array_equal(idx.keys[idx.member_class], ref), (fam.tau, n, s)

    def test_budget_error_names_budget(self, ternary):
        with pytest.raises(BudgetError, match=r"budget is 10 \(raise --budget\)"):
            build_type_index(ternary, 10, Grid.create(n=10, s=1.0, d=2), budget=10)


class TestTypeSizeOfSequence:
    def test_singleton(self, bernoulli):
        idx = build_type_index(bernoulli, 4, Grid.create(n=4, s=1.0, d=1))
        assert idx.sizes[idx.class_of([1, 1, 1, 1])] == 1

    def test_balanced_binary(self, bernoulli):
        idx = build_type_index(bernoulli, 4, Grid.create(n=4, s=1.0, d=1))
        assert idx.sizes[idx.class_of([1, 1, 2, 2])] == 6

    def test_coarse_grid_merges_compositions(self, bernoulli):
        # anchor 0.25, side 0.5: the cell (0, 0.5] holds tau = 0.25 and 0.5
        g = Grid(n=4, s=2.0, d=1, anchor=(0.25,))
        idx = build_type_index(bernoulli, 4, g)
        assert idx.sizes[idx.class_of([1, 1, 2, 2])] == 10

    def test_permutation_invariant(self, ternary):
        idx = build_type_index(ternary, 5, Grid.create(n=5, s=1.0, d=2))
        a = idx.sizes[idx.class_of([1, 2, 3, 2, 1])]
        b = idx.sizes[idx.class_of([3, 2, 2, 1, 1])]
        assert a == b

    def test_no_rank_inside_the_composition(self, ternary, monkeypatch):
        # the class of a sequence needs its counts only, not its rank
        g = Grid.create(n=6, s=2.0, d=2)
        idx = build_type_index(ternary, 6, g)
        seqs = list(product((1, 2, 3), repeat=6))
        keys = [tuple(g.cell_index(suffstat(ternary, xs))) for xs in seqs]
        sizes = {key: keys.count(key) for key in set(keys)}

        def fail(*args, **kwargs):
            raise AssertionError("a rank inside the composition was computed")
        monkeypatch.setattr(tscode.typeclass, "rank_counted", fail)
        for xs, key in zip(seqs, keys):
            assert idx.sizes[idx.class_of(xs)] == sizes[key]
        assert max(sizes.values()) > math.comb(6, 2) * math.comb(4, 2)  # merged classes


class TestBoundFunctions:
    def test_r_balanced_bernoulli(self, bernoulli):
        xs = [1] * 8 + [2] * 8
        assert r_of(bernoulli, Grid.create(n=16, s=1.0, d=1), xs) == pytest.approx(14.0, abs=1e-9)
        assert r_of(bernoulli, Grid.create(n=16, s=2.0, d=1), xs) == pytest.approx(15.0, abs=1e-9)

    def test_r_permutation_invariant(self, ternary):
        g = Grid.create(n=6, s=1.0, d=2)
        assert r_of(ternary, g, [1, 2, 3, 3, 2, 1]) == pytest.approx(
            r_of(ternary, g, [3, 3, 2, 2, 1, 1]), abs=1e-12)

    def test_f_at_uniform_mean(self, ternary):
        g = Grid.create(n=16, s=1.0, d=2)
        target = ternary.tau_array.mean(axis=0)
        expected = (math.log2(3) - 2 / 32 * math.log2(16)
                    + 3 * ternary.kappa / 16)
        assert f_of(ternary, g, target) == pytest.approx(expected, abs=1e-9)

    def test_f_log_term_scaling(self, bernoulli):
        # quadrupling n scales the (d/2n) log2 n term as the formula says
        f16 = f_of(bernoulli, Grid.create(n=16, s=1.0, d=1), [0.5])
        f64 = f_of(bernoulli, Grid.create(n=64, s=1.0, d=1), [0.5])
        base = 1.0  # entropy term at the uniform mean
        term16 = base - f16  # (d/2n) log2 n - 3 kappa s / n at n=16
        term64 = base - f64
        k = bernoulli.kappa
        assert term16 == pytest.approx(4 / 32 - 3 * k / 16, abs=1e-12)
        assert term64 == pytest.approx(6 / 128 - 3 * k / 64, abs=1e-12)

    def test_f_lipschitz_spot_check(self, ternary):
        # |f(t1) - f(t2)| / |t1 - t2| <= rho_max + 0.01 over 1000 random pairs
        g = Grid.create(n=32, s=1.0, d=2)
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(1000):
            w1 = rng.dirichlet([1.5, 1.5, 1.5])
            w2 = rng.dirichlet([1.5, 1.5, 1.5])
            t1 = w1 @ ternary.tau_array
            t2 = w2 @ ternary.tau_array
            gap = np.linalg.norm(t1 - t2)
            if gap < 1e-9:
                continue
            ratio = abs(f_of(ternary, g, t1) - f_of(ternary, g, t2)) / gap
            worst = max(worst, ratio)
        assert worst <= ternary.rho_max + 0.01

    def test_upper_bound_rate_function_with_fitted_constant(self):
        # fit the constant at n=8, then the bound holds at larger n
        fam = FamilySpec.create([[0.0], [1.0]], rho_max=4.0)

        def worst_excess(n, c):
            g = Grid.create(n=n, s=1.0, d=1)
            idx = build_type_index(fam, n, g)
            return max(math.log2(size) - n * f_of(fam, g, idx.centers[k], c=c)
                       for k, size in enumerate(idx.sizes))

        cstar = worst_excess(8, 0.0)
        for n in (16, 32, 64):
            assert worst_excess(n, cstar) <= 1e-9
