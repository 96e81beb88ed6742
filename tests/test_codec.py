import math
import sys
import tracemalloc
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscode import typeclass
from tscode.codec import BLOCK, ClassOrdering, Codeword
from tscode.errors import ContainerError
from tscode.markov import markov_type_index
from tscode.pointtypes import derive_lattice, point_type_index
from tscode.quantized import Grid, build_type_index
from tscode.typeclass import (
    SPLIT_MIN_N,
    multinomial,
    rank_binary_split,
    rank_in_composition,
    rank_per_symbol,
    unrank_in_composition,
)
from conftest import class_id


class TestStringEnumeration:
    def test_first_elements(self):
        # the enumeration starts empty, 0, 1, 00, 01, 10, 11, 000, ...
        expected = ["", "0", "1", "00", "01", "10", "11", "000"]
        assert [Codeword(k).bits for k in range(8)] == expected

    def test_paper_indexed_examples(self):
        assert Codeword(0).bits == ""
        assert Codeword(3).bits == "00"
        assert Codeword(6).bits == "11"

    def test_length_law(self):
        for k in range(2000):
            assert Codeword(k).length == len(Codeword(k).bits) == math.floor(math.log2(k + 1))

    def test_mutual_inverse_formula(self):
        assert Codeword.from_bits("101") == Codeword(2 ** 3 - 1 + 5)

    @given(st.integers(min_value=0, max_value=10 ** 18))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, k):
        assert Codeword.from_bits(Codeword(k).bits).index == k

    def test_round_trip_dense(self):
        for k in range(100_000):
            assert Codeword.from_bits(Codeword(k).bits).index == k

    def test_codeword_validation(self):
        with pytest.raises(ValueError):
            Codeword.from_bits("01x")
        with pytest.raises(ValueError):
            Codeword(-1)


class TestCompositionRanking:
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, seq):
        counts = [seq.count(v) for v in range(3)]
        r = rank_in_composition(counts, seq)
        assert unrank_in_composition(counts, r) == tuple(v + 1 for v in seq)

    def test_lexicographic_order(self):
        counts = (2, 2)
        seqs = sorted(set(product((0, 1), repeat=4)))
        valid = [s for s in seqs if s.count(0) == 2]
        ranks = [rank_in_composition(counts, s) for s in valid]
        assert ranks == list(range(6))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_binary_split_equals_per_symbol(self, data):
        m = data.draw(st.integers(2, 6))
        n = data.draw(st.sampled_from([1, 2, SPLIT_MIN_N - 1, SPLIT_MIN_N, 2048, 2500])
                      | st.integers(1, 2500))
        # a zero weight leaves a zero count
        weights = data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)
                            .filter(any))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        seq = rng.choice(m, size=n, p=np.array(weights) / sum(weights))
        counts = np.bincount(seq, minlength=m).tolist()
        order = data.draw(st.sampled_from(["first", "last", "drawn"]))
        if order != "drawn":
            seq = np.sort(seq) if order == "first" else np.sort(seq)[::-1]
        r = rank_per_symbol(counts, seq.tolist())
        assert rank_binary_split(counts, seq) == r
        assert rank_in_composition(counts, seq) == r
        if order != "drawn":
            assert r == (0 if order == "first" else multinomial(counts) - 1)
        assert unrank_in_composition(counts, r) == tuple((seq + 1).tolist())

    def test_rank_rejects_counts_that_do_not_match(self):
        with pytest.raises(ValueError):
            rank_in_composition([1, 1], [0, 0])
        seq = [0, 1, 2] * SPLIT_MIN_N
        counts = [SPLIT_MIN_N] * 3
        assert rank_in_composition(counts, seq) == rank_per_symbol(counts, seq)
        with pytest.raises(ValueError):
            rank_in_composition([SPLIT_MIN_N + 1, SPLIT_MIN_N - 1, SPLIT_MIN_N], seq)

    def test_unrank_rejects_a_negative_rank(self):
        with pytest.raises(ValueError):
            unrank_in_composition([2, 1], -5)

    def test_unrank_rejects_a_rank_that_is_not_an_int(self):
        with pytest.raises(TypeError):
            unrank_in_composition([2, 1], 1.5)

    def test_unrank_names_a_huge_rank_by_its_bit_length(self):
        # past 4,300 decimal digits a rank cannot be formatted in decimal
        with pytest.raises(ValueError, match="a 15001-bit rank is outside .* 3-bit total"):
            unrank_in_composition([2, 2], 1 << 15000)
        with pytest.raises(ValueError, match="a negative rank is outside .* 3-bit total"):
            unrank_in_composition([2, 2], -(1 << 15000))

    def test_unrank_takes_the_member_size(self):
        assert unrank_in_composition([2, 1], 2, size=3) == (2, 1, 1)
        with pytest.raises(ValueError):
            unrank_in_composition([2, 1], 3, size=3)


def _ordering(fam, n, s=1.0):
    return ClassOrdering(build_type_index(fam, n, Grid.create(n=n, s=s, d=fam.d)))


def _keys(index):
    """The class keys in class id order, as tuples."""
    return [tuple(index.keys[c]) for c in range(len(index.sizes))]


class TestRankUnrank:
    def test_n1_is_permutation(self, ternary):
        o = _ordering(ternary, 1)
        assert sorted(o.rank((x,)) for x in (1, 2, 3)) == [0, 1, 2]

    def test_singletons_first(self, bernoulli):
        o = _ordering(bernoulli, 4)
        assert {o.rank((1, 1, 1, 1)), o.rank((2, 2, 2, 2))} == {0, 1}

    def test_bijection_exhaustive(self, bernoulli, ternary, monkeypatch):
        for split_min_n in (SPLIT_MIN_N, 1):  # 1 forces binary splitting at every n
            monkeypatch.setattr(typeclass, "SPLIT_MIN_N", split_min_n)
            for fam, m, nmax in [(bernoulli, 2, 10), (ternary, 3, 6)]:
                for n in range(1, nmax + 1):
                    o = _ordering(fam, n)
                    seen = set()
                    for xs in product(range(1, m + 1), repeat=n):
                        r = o.rank(xs)
                        assert o.unrank(r) == xs
                        seen.add(r)
                    assert seen == set(range(m ** n))

    def test_unrank_inverts_rank_random(self, ternary):
        o = _ordering(ternary, 8)
        rng = np.random.default_rng(0)
        for k in rng.integers(0, 3 ** 8, size=1000):
            assert o.rank(o.unrank(int(k))) == int(k)

    def test_extreme_ranks(self, bernoulli):
        o = _ordering(bernoulli, 6)
        first = o.unrank(0)
        assert o.index.sizes[class_id(o.index, first)] == o.index.sizes[0]
        last = o.unrank(2 ** 6 - 1)
        assert o.index.sizes[class_id(o.index, last)] == o.index.sizes[-1]

    def test_out_of_range(self, bernoulli):
        o = _ordering(bernoulli, 4)
        with pytest.raises(ValueError):
            o.unrank(16)
        with pytest.raises(ValueError):
            o.unrank(-1)
        # past 4,300 decimal digits a rank cannot be formatted in decimal
        with pytest.raises(ValueError, match="a 15001-bit rank is outside .* 5-bit total"):
            o.unrank(1 << 15000)
        with pytest.raises(ValueError, match="a negative rank is outside .* 5-bit total"):
            o.unrank(-(1 << 15000))

    def test_unrank_rejects_a_rank_that_is_not_an_int(self, bernoulli):
        o = _ordering(bernoulli, 4)
        with pytest.raises(TypeError):
            o.unrank(2.5)


class TestEncodeDecode:
    def test_rank_zero_empty_string(self, bernoulli):
        o = _ordering(bernoulli, 4)
        xs = o.unrank(0)
        assert o.encode(xs).bits == ""

    def test_length_law_everywhere(self, ternary):
        o = _ordering(ternary, 5)
        for xs in product((1, 2, 3), repeat=5):
            r = o.rank(xs)
            assert o.encode(xs).length == math.floor(math.log2(r + 1))

    def test_size_monotone_lengths(self, bernoulli):
        for n in range(1, 9):
            o = _ordering(bernoulli, n)
            pairs = [(o.index.sizes[class_id(o.index, xs)], o.encode(xs).length)
                     for xs in product((1, 2), repeat=n)]
            sizes = sorted({s for s, _ in pairs})
            max_len = {s: max(l for t, l in pairs if t == s) for s in sizes}
            min_len = {s: min(l for t, l in pairs if t == s) for s in sizes}
            for a, b in zip(sizes, sizes[1:]):
                assert max_len[a] <= min_len[b]

    def test_decode_empty_string(self, bernoulli):
        o = _ordering(bernoulli, 4)
        assert o.decode(Codeword.from_bits("")) == o.unrank(0)

    def test_round_trip_binary(self, bernoulli):
        for n in (1, 5, 9, 12):
            o = _ordering(bernoulli, n)
            for xs in product((1, 2), repeat=n):
                assert o.decode(o.encode(xs)) == xs

    def test_round_trip_coarse_grid_merged_classes(self, bernoulli):
        # a coarse grid merges several compositions per class, exercising the
        # within-class colex walk of the ranking
        for n in (6, 9):
            idx = build_type_index(bernoulli, n, Grid.create(n=n, s=2.5, d=1))
            assert (np.diff(idx.bounds) > 1).any()
            o = ClassOrdering(idx)
            seen = set()
            for xs in product((1, 2), repeat=n):
                r = o.rank(xs)
                assert o.unrank(r) == xs
                seen.add(r)
            assert seen == set(range(2 ** n))

    def test_round_trip_point_ordering(self, sqrt2_family, sqrt2_statmap):
        lmap = derive_lattice(sqrt2_statmap)
        for n in (2, 5, 7):
            o = ClassOrdering(point_type_index(sqrt2_family, lmap, n))
            for xs in product((1, 2, 3), repeat=n):
                assert o.decode(o.encode(xs)) == xs

    def test_corrupt_index_rejected(self, bernoulli):
        o = _ordering(bernoulli, 4)
        with pytest.raises(ContainerError):
            o.decode(Codeword.from_bits("10000"))  # index 2^5-1+16 = 47 >= 16


class TestOrderingDeterminism:
    def test_two_constructions_identical(self, ternary):
        idx = build_type_index(ternary, 6, Grid.create(n=6, s=1.0, d=2))
        o1, o2 = ClassOrdering(idx), ClassOrdering(idx)
        assert _keys(o1.index) == _keys(o2.index)
        assert (list(accumulate(o1.index.sizes, initial=0))
                == list(accumulate(o2.index.sizes, initial=0)))
        idx2 = build_type_index(ternary, 6, Grid.create(n=6, s=1.0, d=2))
        o3 = ClassOrdering(idx2)
        assert _keys(o1.index) == _keys(o3.index)
        for xs in [(1, 2, 3, 1, 2, 3), (3, 3, 3, 3, 3, 3), (1, 1, 2, 2, 3, 3)]:
            assert o1.rank(xs) == o3.rank(xs)

    def test_sizes_nondecreasing_with_key_tiebreak(self, ternary):
        index = _ordering(ternary, 7).index
        pairs = list(zip(index.sizes, _keys(index)))
        for a, b in zip(pairs, pairs[1:]):
            assert a < b


@pytest.fixture(scope="module")
def checkpointed(ternary, sqrt2_family, sqrt2_statmap, flip_markov):
    """Orderings of more than one checkpoint block in every mode, each with
    the full cumulative member-size table of its layout as the reference."""
    indexes = {
        "quantized": build_type_index(ternary, 20, Grid.create(n=20, s=1.0, d=2)),
        "point": point_type_index(sqrt2_family, derive_lattice(sqrt2_statmap), 20),
        "markov": markov_type_index(flip_markov, 8, Grid.create(n=8, s=1.0, d=1)),
    }
    out = {}
    for mode, index in indexes.items():
        assert len(index.members) > 3 * BLOCK
        out[mode] = ClassOrdering(index), list(accumulate(index.grouped_sizes, initial=0))
    return out


@st.composite
def layout_slots(draw, ordering):
    """A layout position (often a block's first or last) and a rank inside it."""
    index = ordering.index
    count = len(index.members)
    edges = [p for p in range(count) if p % BLOCK in (0, BLOCK - 1)] + [count - 1]
    pos = draw(st.sampled_from(edges) | st.integers(0, count - 1))
    size = index.grouped_sizes[pos]
    return pos, draw(st.sampled_from([0, size - 1]) | st.integers(0, size - 1))


class TestCheckpoints:
    @pytest.mark.parametrize("mode", ["quantized", "point", "markov"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank_unrank_match_the_full_table(self, checkpointed, mode, data):
        ordering, prefix = checkpointed[mode]
        pos, within = data.draw(layout_slots(ordering))
        xs = ordering.index.sequence_of(int(ordering.index.members[pos]), within)
        k = prefix[pos] + within
        assert ordering.unrank(k) == xs
        assert ordering.rank(xs) == k

    @pytest.mark.parametrize("mode", ["quantized", "point", "markov"])
    def test_ends_and_class_starts_match_the_full_table(self, checkpointed, mode):
        ordering, prefix = checkpointed[mode]
        index = ordering.index
        assert ordering.total == prefix[-1] == index.alphabet_size ** index.n
        starts = range(0, len(index.members), BLOCK)
        assert ordering.marks == [prefix[p] for p in starts] + [prefix[-1]]
        assert (list(accumulate(index.sizes, initial=0))
                == [prefix[b] for b in index.bounds.tolist()])
        last = len(index.members) - 1
        for k, pos, within in ((0, 0, 0), (ordering.total - 1, last, index.grouped_sizes[last] - 1)):
            xs = index.sequence_of(int(index.members[pos]), within)
            assert ordering.unrank(k) == xs
            assert ordering.rank(xs) == k

    def test_no_per_member_table(self, ternary):
        # 8,385 members; a table of one big integer per member costs about
        # as much as the member sizes themselves
        index = build_type_index(ternary, 128, Grid.create(n=128, s=1.0, d=2))
        member_bytes = sum(map(sys.getsizeof, index.grouped_sizes))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ordering = ClassOrdering(index)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ordering.total == 3 ** 128
        assert retained < member_bytes / 8


@given(st.integers(2, 3), st.integers(1, 6), st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_random_family_round_trip(m, n, seed):
    rng = np.random.default_rng(seed)
    from tscode.errors import SpecError
    from tscode.family import FamilySpec
    tau = rng.normal(size=(m, 1)).tolist()
    try:
        fam = FamilySpec.create(tau, rho_max=2.0)
    except SpecError:
        return
    o = ClassOrdering(build_type_index(fam, n, Grid.create(n=n, s=float(rng.uniform(0.4, 2.5)), d=1)))
    xs = tuple(int(v) for v in rng.integers(1, m + 1, size=n))
    assert o.decode(o.encode(xs)) == xs
    assert o.unrank(o.rank(xs)) == xs
