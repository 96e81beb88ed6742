"""Compositions and the columnar type-class index.

A composition (the vector of symbol counts) is the atom of all exact counting
for memoryless families: every sequence statistic is a function of it. Type
indexes group *members* into classes — compositions by cuboid for the
quantized mode or by exact lattice point for the point mode, single paths by
pair-statistic cuboid for the Markov mode — with exact big-integer sizes.

Compositions are enumerated in colexicographic order of the count vector
(last coordinate most significant); a composition's member id is its row in
that enumeration, and a Markov path's member id is its packed base-m value.
Both orders are part of the codec contract. A composition's size depends only
on its multiset of counts, so the exact sizes are a table with one int per
multiset, which every composition with that multiset shares; an index takes
the table and each member's row in it.

Inside a composition, sequences are ranked lexicographically (enumerative
coding, Cover 1973). The rank is summed by binary splitting (Haible &
Papanikolaou 1998), int64 runs first and Python ints after, which takes far
fewer big-integer operations than one step per symbol. The unrank walks the
symbols once, with one multiply and one divide per candidate.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError

DEFAULT_COMPOSITION_BUDGET = 5_000_000
SPLIT_RUNS = 16  # runs left for the exact fold that ends a split rank
MAX_MEMBERS = 2 ** 31 - 1  # member ids, bounds and member classes are int32
ID_LIMIT_HINT = "member ids are int32, so an index holds fewer than 2^31 members whatever the budget"
KEY_BLOCK = 1 << 16  # rows per call of a TypeIndex's keys_of


def composition_count(n: int, m: int) -> int:
    return math.comb(n + m - 1, m - 1)


def composition_array(n: int, m: int) -> np.ndarray:
    """All m-part compositions of n in ascending colex order, as (N, m) int32
    (counts are at most n, and ``check_budget`` keeps N and so n below
    2^31).

    Built from the most significant (last) count down: a row with r still to
    place expands into r + 1 rows, one per value 0..r of the next count.
    """
    rest = np.array([n], dtype=np.int32)
    cols: list[np.ndarray] = []
    for _ in range(m - 1):
        reps = rest + 1
        starts = np.cumsum(reps, dtype=np.int32) - reps
        count = np.arange(int(reps.sum()), dtype=np.int32) - np.repeat(starts, reps)
        cols = [np.repeat(c, reps) for c in cols]
        cols.append(count)
        rest = np.repeat(rest, reps) - count
    cols.append(rest)
    return np.column_stack(cols[::-1])


def colex_rank(counts: Sequence[int]) -> int:
    """Row of ``counts`` in ``composition_array(sum(counts), len(counts))``.

    Combinatorial number system (enumerative coding, Cover 1973): the sum
    over j of C(r+j, j) - C(r-c_j+j, j), where r is the total of the counts
    at positions 0..j.
    """
    rank = 0
    r = sum(counts)
    for j in range(len(counts) - 1, 0, -1):
        c = counts[j]
        rank += math.comb(r + j, j) - math.comb(r - c + j, j)
        r -= c
    return rank


def multiset_sizes(comps: np.ndarray) -> tuple[list[int], np.ndarray]:
    """One exact multinomial per count multiset of ``comps``, an (N, m) array
    of every m-part composition of one n (m >= 2, as every alphabet has), and
    each composition's row in that list (int32); compositions with equal
    multisets share one int.

    A multiset is an ascending count vector a_0 <= ... <= a_{m-1}. Fixing
    a_2..a_{m-1} leaves r = a_0 + a_1 and a block of rows (k, r - k),
    k = max(0, r - a_2)..r // 2, whose sizes run along the binomial row
    C(r, k), one small multiply and one small divide per entry. A block's
    first size is carried from the previous block's, whose a_2 is one less
    (same a_3..): their first rows differ by at most 2 in each count, so
    that is one small multiply and one small divide too; the first block of
    each a_3..a_{m-1} is the multinomial of (r, a_2, .., a_{m-1}) times
    C(r, k). A composition finds its row by the mixed-radix value of its
    sorted counts a_0..a_{m-2}, digit j in base n // (m - j) + 1 (an
    ascending vector has a_j <= n / (m - j)). That value is below
    C(n + m - 1, m - 1) = N, so it fits in int64 and indexes a dense lookup.
    """
    m = comps.shape[1]
    n = int(comps[0].sum())
    weights = [1]
    for j in range(m - 2):
        weights.append(weights[-1] * (n // (m - j) + 1))
    weights.append(0)  # a_{m-1} is n less the others
    # (a_0 + .. + a_j, a_{j+1}, multinomial of (that sum, a_{j+1}, ..) or
    # None past the least a_2 of its a_3.., key digits of a_{j+1}..) for
    # every choice of a_{j+1}..a_{m-1}, j = m-1..1
    tails = [(n, n, 1, 0)]
    for j in range(m - 1, 1, -1):
        tails = [(rest - a, a, scale * math.comb(rest, a) if j > 2 or a == least else None,
                  key + a * weights[j])
                 for rest, top, scale, key in tails
                 for least in [-(-rest // (j + 1))]
                 for a in range(least, min(top, rest) + 1)]
    values: list[int] = []
    blocks = []  # (r, least k, key digits of a_2..a_{m-1})
    for r, top, scale, key in tails:
        k0 = max(0, r - top)
        if scale is None:
            # first rows (k0, r - k0, a_2) here and (k, r + 1 - k, a_2 - 1)
            # in the previous block: first *= prod(old counts!) / prod(new!)
            old = (blocks[-1][1], r + 1 - blocks[-1][1], top - 1)
            new = (k0, r - k0, top)
            first = (first * math.prod(math.perm(a, a - b) for a, b in zip(old, new) if a > b)
                     // math.prod(math.perm(b, b - a) for a, b in zip(old, new) if b > a))
        else:
            first = scale * math.comb(r, k0)
        blocks.append((r, k0, key))
        v = first
        values.append(v)
        for k in range(k0 + 1, r // 2 + 1):
            v = v * (r - k + 1) // k
            values.append(v)
    r, k0, tail = (np.array(col, dtype=np.int64) for col in zip(*blocks))
    lengths = r // 2 - k0 + 1
    k = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(np.cumsum(lengths) - lengths - k0, lengths)
    row_keys = np.repeat(tail + r * weights[1], lengths) + k * (weights[0] - weights[1])
    lookup = np.empty(int(row_keys.max()) + 1, dtype=np.int32)
    lookup[row_keys] = np.arange(len(row_keys), dtype=np.int32)
    return values, lookup[np.sort(comps, axis=1) @ np.array(weights, dtype=np.int64)]


def rank_counted(counts: Sequence[int], x: np.ndarray, size: int) -> int:
    """Lexicographic index of a 1-D integer array ``x`` of 0-based symbols
    among the permutations of its multiset ``counts``, which the caller took
    from it; ``size`` is their number, the multinomial of the counts. It is
    summed by binary splitting (Haible & Papanikolaou 1998).

    At position i, q_i = n - i symbols remain, S_i of them below x_i and p_i
    equal to x_i; with size_i the multinomial of the remaining counts, the
    rank is the sum of size_i * S_i / q_i and size_{i+1} = size_i * p_i / q_i.
    A run of positions is (T, P, Q): P and Q are the products of its p and
    q, and T / Q is its part of the sum over the size at its start, so two
    adjacent runs join as (T_l Q_r + P_l T_r, P_l P_r, Q_l Q_r). Since
    S_i + p_i <= q_i <= n, T <= Q < 2^(len * n.bit_length()), so runs of up
    to ``63 // n.bit_length()`` positions (a power of two) are built in int64
    and longer ones as Python ints, until at most ``SPLIT_RUNS`` runs are
    left. An exact fold over those (rank += size T / Q, size = size P / Q)
    keeps the big integers at the width of the rank.
    """
    n = len(x)
    m = len(counts)
    c = np.asarray(counts, dtype=np.int64)
    # below_or_at[i, v]: positions j <= i with x_j < v, for v = 0..m
    below_or_at = np.cumsum(x[:, None] < np.arange(m + 1), axis=0).ravel()
    at = np.arange(0, n * (m + 1), m + 1) + x
    earlier_below = below_or_at[at]
    # levels of pair joins in int64, then as Python ints
    int_levels = (63 // max(n, 2).bit_length()).bit_length() - 1
    object_levels = (-(-n // (SPLIT_RUNS << int_levels)) - 1).bit_length()
    width = 1 << (int_levels + object_levels)
    # padding positions (S, p, q) = (0, 1, 1) leave every run as it is
    S = np.zeros(-(-n // width) * width, dtype=np.int64)
    p = np.ones_like(S)
    q = np.ones_like(S)
    S[:n] = (np.cumsum(c) - c)[x] - earlier_below
    p[:n] = c[x] + 1 + earlier_below - below_or_at[at + 1]
    q[:n] = np.arange(n, 0, -1)
    runs = S, p, q
    for _ in range(int_levels):
        runs = _join_pairs(*runs)
    runs = [a.astype(object) for a in runs]
    for _ in range(object_levels):
        runs = _join_pairs(*runs)
    rank = 0
    for t, pp, qq in zip(*(a.tolist() for a in runs)):
        rank += size * t // qq
        size = size * pp // qq
    return rank


def _join_pairs(T: np.ndarray, P: np.ndarray, Q: np.ndarray):
    """Runs 2j and 2j + 1 of a binary-splitting level joined into run j."""
    return T[0::2] * Q[1::2] + P[0::2] * T[1::2], P[0::2] * P[1::2], Q[0::2] * Q[1::2]


def rank_out_of_range(k: int, total: int) -> ValueError:
    """The error for a rank outside [0, total), naming bit lengths only: a
    rank or total past 4,300 digits cannot be formatted in decimal."""
    rank = "a negative rank" if k < 0 else f"a {k.bit_length()}-bit rank"
    return ValueError(f"{rank} is outside [0, total) for a {total.bit_length()}-bit total")


def unrank_in_composition(counts: Sequence[int], k: int, size: int) -> tuple[int, ...]:
    """The sequence at rank ``k`` among the permutations of ``counts``, in
    symbols 1..m (``counts[j]`` counts symbol j + 1, index j of a rank);
    ``size`` is their number, the multinomial of the counts."""
    k = operator.index(k)
    rem_counts = list(counts)
    if not 0 <= k < size:
        raise rank_out_of_range(k, size)
    out = []
    for remaining in range(sum(rem_counts), 0, -1):
        y = 1
        for c in rem_counts:
            if c:
                block = size * c // remaining
                if k < block:
                    break
                k -= block
            y += 1
        out.append(y)
        rem_counts[y - 1] -= 1
        size = block
    return tuple(out)


def pack_path(alphabet_size: int, sym_idx) -> int:
    p = 0
    for x in sym_idx:
        p = p * alphabet_size + int(x)
    return p


def unpack_path(alphabet_size: int, packed: int, n: int) -> list[int]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        packed, digit = divmod(packed, alphabet_size)
        out[i] = digit
    return out


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Groups of equal rows of a nonempty (N, k) integer array, N < 2^31, in
    ascending lexicographic order, from one stable sort: the row ids grouped
    (ids ascending inside a group), the CSR bounds of the groups in that
    order, and the group of each row, all int32.

    When the product of the column spans fits in int64, the sort runs over
    one mixed-radix key per row (first column most significant), which
    orders the rows as ``lexsort`` does; otherwise over ``lexsort``. Lows,
    spans and key are built one column at a time: on a tall array that is
    several times faster than the axis-0 reductions and an int64 matmul.
    """
    if len(rows) > MAX_MEMBERS:
        raise ValueError(f"{len(rows)} rows do not fit int32 row ids")
    cols = rows.T
    lows = [int(col.min()) for col in cols]
    spans = [int(col.max()) - lo + 1 for col, lo in zip(cols, lows)]
    key_count = math.prod(spans)
    if key_count < 2 ** 63:
        keys = (cols[0] - lows[0]).astype(np.int64, copy=False)
        for col, lo, span in zip(cols[1:], lows[1:], spans[1:]):
            keys *= span
            keys += col - lo
        # sorted in their narrowest unsigned type: numpy radix-sorts keys
        # below 2^16, several times faster than int64
        order = np.argsort(keys.astype(np.min_scalar_type(key_count - 1)), kind="stable")
        keys = keys[order]
        new_group = keys[1:] != keys[:-1]
        del keys  # released before the int32 copies below
    else:
        order = np.lexsort(cols[::-1])
        grouped = rows[order]
        new_group = np.any(grouped[1:] != grouped[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new_group)))
    bounds = np.append(starts, len(order)).astype(np.int32)
    order = order.astype(np.int32)
    group_of = np.empty(len(order), dtype=np.int32)
    group_of[order] = np.repeat(np.arange(len(starts), dtype=np.int32), np.diff(bounds))
    return order, bounds, group_of


class ClassColumns:
    """The per-class columns of a TypeIndex that its class views read. It
    holds no reference to the index, so views cached on the index form no
    reference cycle."""

    __slots__ = ("sizes", "members", "bounds")

    def __init__(self, index: "TypeIndex"):
        self.sizes = index.sizes
        self.members = index.members
        self.bounds = index.bounds


class TypeClass:
    """One class of a TypeIndex, read through the index's columns."""

    __slots__ = ("_columns", "id")

    def __init__(self, columns: ClassColumns, cid: int):
        self._columns = columns
        self.id = cid

    @property
    def size(self) -> int:
        return self._columns.sizes[self.id]

    @property
    def members(self) -> np.ndarray:
        """Member ids of the class, ascending."""
        bounds = self._columns.bounds
        return self._columns.members[bounds[self.id]:bounds[self.id + 1]]


class TypeIndex:
    """All type classes of one mode at one blocklength, stored as columns.

    Classes are numbered in codec order, ascending by (exact size, key), the
    order in which the type-size code ranks them. The constructor builds
    only what the codec reads: ``members``, the member ids grouped by class
    (CSR ``bounds``, ascending inside a class), ``grouped_sizes``, the
    members' exact sequence counts in that layout, and by member id
    ``member_class`` and ``member_stats`` (composition counts, int32, or
    Markov path-statistic sums). Member ids, ``bounds``, ``member_class``
    and the table rows are int32; ``check_budget`` refuses an index of 2^31
    members or more, whatever the budget.

    The columns that the codec does not read are derived on first read and
    then kept: per class, ``keys`` (K, kdim), exact ``sizes`` (Python ints)
    and ``log2_sizes`` (math.log2 of each exact size), and per member
    ``member_log2_sizes`` (log2 of the member's exact sequence count). Keys
    come from the stats of each class's first member through ``keys_of``, a
    row-wise map from member stats to class keys.

    Member sizes arrive as a table of exact sizes, ``size_values`` (one per
    count multiset, or the one row ``[1]`` for Markov paths), and each
    member's row in it, ``member_size_rows``; members and singleton classes
    share the table's ints. A class with several members appends its exact
    sum to the table. log2 is taken once per row, and the classes are ordered
    by a stable argsort of the dense rank of their row's exact value among the
    rows that classes use, so that equal sizes, also in different rows, share
    a rank and keep key order.
    """

    def __init__(self, spec, n: int, mode: str, member_stats: np.ndarray,
                 size_values: Sequence[int], member_size_rows: np.ndarray,
                 keys_of: Callable[[np.ndarray], np.ndarray]):
        self.spec = spec
        self.n = n
        self.mode = mode  # "quantized" | "point" | "markov"
        self.member_stats = member_stats
        self._keys_of = keys_of
        self._member_size_rows = member_size_rows
        row_log2 = np.fromiter(map(math.log2, size_values), float, count=len(size_values))
        # one stable sort: classes in key order, member ids ascending inside;
        # the member keys live only for it
        members, bounds, member_class = group_rows(_by_blocks(keys_of, member_stats))
        grouped_rows = member_size_rows[members]
        table = np.array(size_values, dtype=object)
        grouped_sizes = table[grouped_rows]
        class_rows = grouped_rows[bounds[:-1]]
        del grouped_rows  # each temporary goes once consumed: a lower build peak
        merged = np.flatnonzero(np.diff(bounds) > 1)
        if len(merged):
            sums = np.add.reduceat(grouped_sizes, bounds[:-1])[merged]
            class_rows[merged] = np.arange(len(table), len(table) + len(sums))
            table = np.concatenate((table, sums))
            row_log2 = np.concatenate((row_log2, [math.log2(v) for v in sums.tolist()]))
        # dense rank of each used row's exact value, so equal values share a
        # rank; after the exact sort, neighbours with unequal logs are unequal
        used = np.flatnonzero(np.bincount(class_rows, minlength=len(table))).tolist()
        used.sort(key=table.__getitem__)
        log2_used = row_log2[used]
        steps = log2_used[1:] != log2_used[:-1]
        for i in np.flatnonzero(~steps).tolist():
            steps[i] = table[used[i]] != table[used[i + 1]]
        rank_of_row = np.zeros(len(table), dtype=np.int64)
        rank_of_row[used] = np.concatenate(([0], np.cumsum(steps)))
        order = np.argsort(rank_of_row[class_rows], kind="stable")
        # renumber the classes in that order and move their member runs along
        self._table = table
        self._row_log2 = row_log2
        self._class_rows = class_rows[order]
        counts = np.diff(bounds)[order]
        self.bounds = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, dtype=np.int32, out=self.bounds[1:])
        gather = np.repeat(bounds[order] - self.bounds[:-1], counts)
        gather += np.arange(len(members), dtype=np.int32)
        self.members = members[gather]
        del members
        self.grouped_sizes = grouped_sizes[gather]
        del grouped_sizes, gather
        slot = np.empty(len(order), dtype=np.int32)
        slot[order] = np.arange(len(order), dtype=np.int32)
        self.member_class = slot[member_class]

    @cached_property
    def keys(self) -> np.ndarray:
        return _by_blocks(self._keys_of, self.member_stats[self.members[self.bounds[:-1]]])

    @cached_property
    def sizes(self) -> list[int]:
        return self._table[self._class_rows].tolist()

    @cached_property
    def log2_sizes(self) -> np.ndarray:
        return self._row_log2[self._class_rows]

    @cached_property
    def member_log2_sizes(self) -> np.ndarray:
        return self._row_log2[self._member_size_rows]

    @property
    def alphabet_size(self) -> int:
        return self.spec.alphabet.size

    # tsbench reads it; ROADMAP item 5 removes it after item 3
    @cached_property
    def classes(self) -> tuple[TypeClass, ...]:
        columns = ClassColumns(self)
        return tuple(TypeClass(columns, c) for c in range(len(self.bounds) - 1))

    def locate(self, xs) -> tuple[int, int]:
        """The layout position of the member holding a length-n sequence, and
        the sequence's rank in that member (given the member's exact size)."""
        idx, counts = self.spec.alphabet.indices(xs)
        if len(idx) != self.n:
            raise ValueError(f"sequence length {len(idx)} does not match index n={self.n}")
        if self.mode == "markov":
            member = pack_path(self.alphabet_size, idx.tolist())
        else:
            member = colex_rank(counts)
        c = int(self.member_class[member])
        lo, hi = self.bounds[c], self.bounds[c + 1]
        pos = int(lo + np.searchsorted(self.members[lo:hi], member))
        if self.mode == "markov":
            return pos, 0
        return pos, rank_counted(counts, idx, self.grouped_sizes[pos])

    def sequence_of(self, member: int, within: int, size: int) -> tuple[int, ...]:
        """The 1-based sequence at rank ``within`` in a member, the inverse of
        ``locate``; ``size`` is the member's exact sequence count."""
        if self.mode == "markov":
            return tuple(y + 1 for y in unpack_path(self.alphabet_size, member, self.n))
        return unrank_in_composition(self.member_stats[member].tolist(), within, size)


def composition_index(spec, n: int, mode: str, keys_of: Callable[[np.ndarray], np.ndarray],
                      budget: int | None = None) -> TypeIndex:
    """The index of every n-composition of the spec's alphabet, grouped by
    ``keys_of`` (a row-wise map from composition counts to class keys),
    after the enumeration is checked against ``budget`` (default
    ``DEFAULT_COMPOSITION_BUDGET``)."""
    m = spec.alphabet.size
    check_budget("composition enumeration", composition_count(n, m),
                 DEFAULT_COMPOSITION_BUDGET if budget is None else budget)
    comps = composition_array(n, m)
    return TypeIndex(spec, n, mode, comps, *multiset_sizes(comps), keys_of)


def _by_blocks(fn: Callable[[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
    """A row-wise ``fn`` applied to ``KEY_BLOCK`` rows at a time, so that its
    temporaries stay small; numpy's einsum and elementwise ops give each row
    the same bits in a block as in the whole array."""
    return np.concatenate([fn(rows[lo:lo + KEY_BLOCK]) for lo in range(0, len(rows), KEY_BLOCK)])


def check_budget(what: str, needed: int | float, budget: int, shown: str | None = None) -> None:
    """Refuse an enumeration of ``needed`` members (``shown`` in the message,
    if given) above the budget or above what int32 member ids can number."""
    if needed > budget:
        raise BudgetError(what, shown or needed, budget, hint="raise --budget")
    if needed > MAX_MEMBERS:
        raise BudgetError(what, shown or needed, budget, hint=ID_LIMIT_HINT)
