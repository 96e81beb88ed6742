"""Properties of the columnar type index, checked exhaustively on small specs.

One index layout serves the quantized, point and Markov modes. On random
small families every sequence is enumerated and the codec order is checked
against definitions computed here directly from the sequences: the rank is
a bijection onto [0, m^n), classes occupy contiguous rank ranges in
ascending (size, key) order, every class holds exactly the sequences with
its key, and class masses equal the per-sequence probability sums. The row
grouping under the index is checked against sorted Python tuples, and the
columns the index derives on first read against the formulas that built
them eagerly.
"""

import gc
import math
from bisect import bisect_right
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tscode.typeclass
from tscode.codec import ClassOrdering
from tscode.errors import BudgetError
from tscode.family import FamilySpec, evaluate
from tscode.markov import (
    MarkovFamilySpec,
    _all_path_stats,
    markov_class_masses,
    markov_type_index,
    transition_matrix,
)
from tscode.pointtypes import ExactStatMap, derive_lattice, point_type_index
from tscode.quantized import Grid, build_type_index
from tscode.rates import SourceSpec, class_masses
from tscode.typeclass import check_budget, composition_array, group_rows, multinomial
from conftest import class_id, lattice_key, mean_stat

MAX_N = {2: 7, 3: 7, 4: 5}


def _check_ordering(ordering, m, key_of, prob_of, masses):
    """Exhaustive checks of one ordering; key_of and prob_of work per sequence."""
    index = ordering.index
    n = index.n
    seqs = list(product(range(1, m + 1), repeat=n))
    # class ids are the codec slots, and (size, key) ascends along the columns
    assert np.array_equal(index.member_class[index.members],
                          np.repeat(np.arange(len(index.sizes)), np.diff(index.bounds)))
    pairs = list(zip(index.sizes, map(tuple, index.keys.tolist())))
    assert all(a < b for a, b in zip(pairs, pairs[1:]))
    assert index.log2_sizes.tolist() == [math.log2(size) for size in index.sizes]
    starts = list(accumulate(index.sizes, initial=0))
    ranks = []
    exhaustive = [[] for _ in index.sizes]
    for xs in seqs:
        r = ordering.rank(xs)
        ranks.append(r)
        assert ordering.unrank(r) == xs
        # the class whose rank range holds r has the sequence's own key
        c = bisect_right(starts, r) - 1
        assert tuple(index.keys[c]) == key_of(xs)
        exhaustive[c].append(prob_of(xs))
    assert sorted(ranks) == list(range(m ** n)) == list(range(ordering.total))
    assert pairs == [(size, tuple(index.keys[c])) for c, size in enumerate(index.sizes)]
    assert [len(probs) for probs in exhaustive] == index.sizes
    for mass, probs in zip(masses, exhaustive):
        assert abs(mass - math.fsum(probs)) <= 1e-12


@st.composite
def memoryless_cases(draw):
    m = draw(st.integers(2, 4))
    d = draw(st.integers(1, min(2, m - 1)))
    tau = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(m)]
    diffs = np.asarray(tau[1:], dtype=float) - np.asarray(tau[0], dtype=float)
    if np.linalg.matrix_rank(diffs) < d:
        tau[1:d + 1] = [[tau[0][j] + (1 if j == i else 0) for j in range(d)] for i in range(d)]
    spec = FamilySpec.create(tau, rho_max=2.0)
    n = draw(st.integers(1, MAX_N[m]))
    s = draw(st.floats(0.3, 3.0))
    anchor = [draw(st.floats(-1.0, 1.0)) for _ in range(d)]
    theta = [draw(st.floats(-1.0, 1.0)) for _ in range(d)]
    return spec, n, s, anchor, theta


def _memoryless_index(spec, mode, n, s, anchor):
    """The index of one memoryless mode, and the class key of a sequence
    worked out from the sequence alone."""
    if mode == "quantized":
        grid = Grid.create(n=n, s=s, d=spec.d, anchor=anchor)

        def key_of(xs):
            return tuple(grid.cell_index(mean_stat(spec, xs)).tolist())
        return build_type_index(spec, n, grid), key_of
    lmap = derive_lattice(ExactStatMap.from_rational_tau(spec))
    return point_type_index(spec, lmap, n), lambda xs: lattice_key(lmap, xs)


class TestColumnarIndex:
    @given(memoryless_cases(), st.sampled_from(["quantized", "point"]))
    @settings(max_examples=60, deadline=None)
    def test_memoryless_modes(self, case, mode):
        spec, n, s, anchor, theta = case
        m = spec.alphabet.size
        index, key_of = _memoryless_index(spec, mode, n, s, anchor)
        pmf = evaluate(spec, theta).pmf
        _check_ordering(ClassOrdering(index), m, key_of,
                        lambda xs: math.prod(pmf[x - 1] for x in xs),
                        class_masses(SourceSpec(spec, tuple(theta)), index))

    @given(st.integers(2, 4), st.integers(1, 2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_markov_circulant(self, m, d, data):
        # tau2(a, b) depends on (b - a) mod m only, so every row holds the
        # same multiset of vectors and the family has a single normalizer
        by_step = [[data.draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(m)]
        tau2 = [by_step[(b - a) % m] for a in range(m) for b in range(m)]
        x0 = data.draw(st.integers(1, m))
        mspec = MarkovFamilySpec.create(tau2, rho_max=2.0, x0=x0)
        n = data.draw(st.integers(1, min(6, MAX_N[m])))
        grid = Grid.create(n=n, s=data.draw(st.floats(0.3, 3.0)), d=d,
                           anchor=[data.draw(st.floats(-1.0, 1.0)) for _ in range(d)])
        theta = [data.draw(st.floats(-1.0, 1.0)) for _ in range(d)]
        index = markov_type_index(mspec, n, grid)
        p = transition_matrix(mspec, theta)
        table = np.asarray(tau2, dtype=float).reshape(m, m, d)

        def steps(xs):
            return zip((x0,) + xs[:-1], xs)

        def key_of(xs):
            stat = sum(table[a - 1, b - 1] for a, b in steps(xs)) / n
            return tuple(grid.cell_index(stat).tolist())

        _check_ordering(ClassOrdering(index), m, key_of,
                        lambda xs: math.prod(p[a - 1, b - 1] for a, b in steps(xs)),
                        markov_class_masses(index, theta))


@pytest.mark.parametrize("mode, m, n", [("quantized", 3, 8), ("point", 4, 7)])
def test_ties_between_count_multisets(mode, m, n):
    # the first blocklengths at which different count multisets have equal
    # multinomials, M(0,3,5) = M(1,1,6) = 56 and M(0,2,2,3) = M(1,1,1,4) =
    # 210, beyond MAX_N; every composition here is a class of its own
    tau = np.vstack((np.zeros(m - 1), np.eye(m - 1))).tolist()
    spec = FamilySpec.create(tau, rho_max=2.0)
    index, key_of = _memoryless_index(spec, mode, n, 1.0, None)
    multisets = {}
    for c, size in enumerate(index.sizes):
        counts = index.member_stats[index.members[index.bounds[c]]].tolist()
        multisets.setdefault(size, set()).add(tuple(sorted(counts)))
    assert max(map(len, multisets.values())) == 2
    theta = [0.3, -0.2, 0.1][:m - 1]
    pmf = evaluate(spec, theta).pmf
    _check_ordering(ClassOrdering(index), m, key_of,
                    lambda xs: math.prod(pmf[x - 1] for x in xs),
                    class_masses(SourceSpec(spec, tuple(theta)), index))


def test_indexes_and_orderings_leave_no_reference_cycles(ternary, sqrt2_family, sqrt2_statmap,
                                                         flip_markov):
    # a cycle would keep every big-integer column alive until a full collection
    gc.collect()
    n = 24
    indexes = [
        build_type_index(ternary, n, Grid.create(n=n, s=1.0, d=2)),
        point_type_index(sqrt2_family, derive_lattice(sqrt2_statmap), n),
        markov_type_index(flip_markov, 10, Grid.create(n=10, s=1.0, d=1)),
    ]
    for index in indexes:
        ordering = ClassOrdering(index)
        xs = (1,) * index.n
        assert ordering.decode(ordering.encode(xs)) == xs
        # the cached class views must not hold the index that caches them
        assert len(index.classes) == len(ordering.classes) == len(index.sizes)
        assert index.sizes[class_id(index, xs)] >= 1
    del index, ordering, indexes
    assert gc.collect() == 0


def test_class_views_read_the_columns(ternary, sqrt2_family, sqrt2_statmap, flip_markov):
    # tsbench reads index.classes and ordering.classes; nothing in tscode does
    n = 12
    for index in (build_type_index(ternary, n, Grid.create(n=n, s=2.0, d=2)),
                  point_type_index(sqrt2_family, derive_lattice(sqrt2_statmap), n),
                  markov_type_index(flip_markov, n, Grid.create(n=n, s=1.0, d=1))):
        bounds = index.bounds
        for classes in (index.classes, ClassOrdering(index).classes):
            assert [c.size for c in classes] == index.sizes
            assert [c.id for c in classes] == list(range(len(index.sizes)))
            for c, cls in enumerate(classes):
                assert np.array_equal(cls.members, index.members[bounds[c]:bounds[c + 1]])
        # the views read only the sizes, members and bounds
        assert not {"keys", "centers"} & set(vars(index))


LAZY_COLUMNS = ("keys", "centers", "sizes", "log2_sizes", "member_log2_sizes")


@pytest.mark.parametrize("case", ["ternary quantized", "sqrt2 point", "sqrt2 quantized",
                                  "rotation markov"])
def test_lazy_columns(case, ternary, sqrt2_family, sqrt2_statmap, monkeypatch):
    # blocks of 7 rows, so that keys are built over several blocks and a
    # ragged last one, on the members and on the first member of each class
    monkeypatch.setattr(tscode.typeclass, "KEY_BLOCK", 7)
    rng = np.random.default_rng(3)
    if case == "rotation markov":
        steps = [(0, 0), (1, 0), (0, 1)]
        mspec = MarkovFamilySpec.create([steps[(b - a) % 3] for a in range(3) for b in range(3)],
                                        rho_max=2.0, x0=1)
        n = 8
        grid = Grid.create(n=n, s=1.0, d=2)
        index = markov_type_index(mspec, n, grid)
        member_keys = grid.cell_index(_all_path_stats(mspec, n) / n)
        centers_of = grid.center_of_index
        member_sizes = [1] * 3 ** n
    else:
        spec = ternary if case.startswith("ternary") else sqrt2_family
        n = 40 if spec is ternary else 64
        comps = composition_array(n, 3)
        if case.endswith("point"):
            lmap = derive_lattice(sqrt2_statmap)
            index = point_type_index(spec, lmap, n)
            member_keys = comps @ lmap.L_array

            def centers_of(keys):
                return np.asarray(lmap.tau1) + (keys.astype(float) / n) @ lmap.recon_array.T
        else:
            grid = Grid.create(n=n, s=1.0, d=spec.d)
            index = build_type_index(spec, n, grid)
            member_keys = grid.cell_index(np.einsum("ij,jk->ik", comps.astype(float),
                                                    spec.tau_array) / n)
            centers_of = grid.center_of_index
        member_sizes = [multinomial(c) for c in comps.tolist()]
    # the codec reads none of them
    ordering = ClassOrdering(index)
    for _ in range(20):
        xs = tuple(int(x) for x in rng.integers(1, 4, size=n))
        assert ordering.decode(ordering.encode(xs)) == xs
    assert not set(LAZY_COLUMNS) & set(vars(index))
    # nor does the class size lookup
    assert index.sizes[class_id(index, xs)] >= 1
    assert not {"keys", "centers"} & set(vars(index))
    # each equals the formula that used to build it eagerly
    bounds = index.bounds.tolist()
    firsts = index.members[bounds[:-1]]
    assert np.array_equal(index.keys, member_keys[firsts])
    assert index.centers.tobytes() == centers_of(member_keys[firsts]).tobytes()
    sizes = [sum(member_sizes[i] for i in index.members[lo:hi].tolist())
             for lo, hi in zip(bounds, bounds[1:])]
    assert index.sizes == sizes
    assert index.log2_sizes.tolist() == [math.log2(size) for size in sizes]
    assert index.member_log2_sizes.tolist() == [math.log2(size) for size in member_sizes]
    if case == "sqrt2 quantized":
        assert max(np.diff(bounds)) > 1  # classes of several compositions


def test_member_ids_stay_int32_whatever_the_budget(bernoulli, ternary, sqrt2_family,
                                                    sqrt2_statmap, flip_markov):
    # refused before any enumeration, so nothing is allocated here
    budget = 2 ** 40
    check_budget("composition enumeration", 2 ** 31 - 1, budget)
    lmap = derive_lattice(sqrt2_statmap)
    n = 65535  # C(n + 2, 2) = 2^31 + 2^15 ternary compositions
    calls = [
        lambda: check_budget("composition enumeration", 2 ** 31, budget),
        lambda: build_type_index(bernoulli, 2 ** 31 - 1,
                                 Grid.create(n=2 ** 31 - 1, s=1.0, d=1), budget=budget),
        lambda: build_type_index(ternary, n, Grid.create(n=n, s=1.0, d=2), budget=budget),
        lambda: point_type_index(sqrt2_family, lmap, n, budget=budget),
        lambda: markov_type_index(flip_markov, 31, Grid.create(n=31, s=1.0, d=1),
                                  budget=budget),
    ]
    for call in calls:
        with pytest.raises(BudgetError, match=r"budget is 1099511627776 \(member ids are int32"):
            call()


def _check_grouping(rows):
    """group_rows against sorted distinct tuples: ids ascending in a group."""
    order, bounds, group_of = group_rows(rows)
    tuples = list(map(tuple, rows.tolist()))
    distinct = sorted(set(tuples))
    ids = [[i for i, t in enumerate(tuples) if t == key] for key in distinct]
    assert order.tolist() == [i for group in ids for i in group]
    assert bounds.tolist() == [0] + np.cumsum([len(group) for group in ids]).tolist()
    assert group_of.tolist() == [distinct.index(t) for t in tuples]


class TestGroupRows:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_sorted_tuples(self, data):
        # cell indices can be negative; a wide bound takes the lexsort path
        k = data.draw(st.integers(1, 4))
        bound = data.draw(st.sampled_from([2, 1000, 2 ** 62]))
        entry = st.integers(-bound, bound)
        pool = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=8))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        _check_grouping(np.array([pool[i] for i in picks], dtype=np.int64).reshape(-1, k))

    @pytest.mark.parametrize("lows, spans, lexsort", [
        ((-2 ** 31, 0), (2 ** 32, 2 ** 31 - 1), False),  # 2^63 - 2^32: the key fits
        ((-2 ** 31, 0), (2 ** 32, 2 ** 31), True),       # 2^63
        ((0,) * 62, (2,) * 62, False),                   # 2^62
        ((-1,) * 63, (2,) * 63, True),                   # 2^63
    ])
    def test_int64_boundary_picks_the_branch(self, lows, spans, lexsort, monkeypatch):
        calls = []
        np_lexsort = np.lexsort

        def spy(keys):
            calls.append(np.shape(keys))
            return np_lexsort(keys)
        monkeypatch.setattr(np, "lexsort", spy)
        k = len(lows)
        lo = np.array(lows, dtype=np.int64)
        hi = lo + np.array(spans, dtype=np.int64) - 1
        rows = [lo, hi, lo.copy(), hi.copy()]
        for j in (0, k - 1):  # neighbours of the corners, in the first and last column
            for corner, step in ((lo, 1), (hi, -1)):
                row = corner.copy()
                row[j] += step
                rows.append(row)
        rows = np.array(rows * 2 + rows[::-1])
        _check_grouping(rows)
        assert calls == ([(k, len(rows))] if lexsort else [])
