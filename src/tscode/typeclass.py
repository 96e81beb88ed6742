"""Compositions and the columnar type-class index.

A composition (the vector of symbol counts) is the atom of all exact counting
for memoryless families: every sequence statistic is a function of it. Type
indexes group *members* into classes — compositions by cuboid for the
quantized mode or by exact lattice point for the point mode, single paths by
pair-statistic cuboid for the Markov mode — with exact big-integer sizes.

Compositions are enumerated in colexicographic order of the count vector
(last coordinate most significant); a composition's member id is its row in
that enumeration, and a Markov path's member id is its packed base-m value.
Both orders are part of the codec contract.

Inside a composition, sequences are ranked lexicographically (enumerative
coding, Cover 1973). Below ``SPLIT_MIN_N`` symbols the rank takes one
big-integer step per symbol; from there on it is summed by binary splitting
(Haible & Papanikolaou 1998), int64 runs first and Python ints after, which
gives the same integer with far fewer big-integer operations. The crossover
was measured against the per-symbol loop at alphabet sizes 2 to 4. The unrank
walks the symbols once, with one multiply and one divide per candidate.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError

DEFAULT_COMPOSITION_BUDGET = 5_000_000
SPLIT_MIN_N = 192  # rank_in_composition splits from this many symbols on
SPLIT_RUNS = 16  # runs left for the exact fold that ends a split rank


def multinomial(counts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / prod(k_i!)."""
    total = 0
    out = 1
    for k in counts:
        total += k
        out *= math.comb(total, k)
    return out


def composition_count(n: int, m: int) -> int:
    return math.comb(n + m - 1, m - 1)


def composition_array(n: int, m: int) -> np.ndarray:
    """All m-part compositions of n in ascending colex order, as (N, m) int64.

    Built from the most significant (last) count down: a row with r still to
    place expands into r + 1 rows, one per value 0..r of the next count.
    """
    rest = np.array([n], dtype=np.int64)
    cols: list[np.ndarray] = []
    for _ in range(m - 1):
        reps = rest + 1
        starts = np.cumsum(reps) - reps
        count = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(starts, reps)
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


def _extend_binomial_row(out: list[int], scale: int, r: int) -> None:
    """Append scale * C(r, k) for k = 0..r: one small multiply and one small
    divide per entry of the first half, the mirror image for the rest."""
    row = [scale]
    v = scale
    for k in range(1, r // 2 + 1):
        v = v * (r - k + 1) // k
        row.append(v)
    out += row
    out += reversed(row[:r + 1 - len(row)])


def multinomials_colex(n: int, m: int) -> list[int]:
    """Exact multinomial coefficients aligned with ``composition_array(n, m)``.

    Fixing the counts at positions 2..m-1 leaves a block of rows whose first
    two counts run over (r - k, k), k = 0..r. Those blocks follow the colex
    order of the (m-1)-part compositions (r, counts 2..m-1), and each block
    is that composition's multinomial times the binomial row C(r, k).
    """
    if m == 1:
        return [1]
    out: list[int] = []
    outer = multinomials_colex(n, m - 1)
    for scale, r in zip(outer, composition_array(n, m - 1)[:, 0].tolist()):
        _extend_binomial_row(out, scale, r)
    return out


def rank_in_composition(counts: Sequence[int], sym_idx) -> int:
    """Lexicographic index of a sequence (0-based symbols, a list or 1-D
    integer array) among the permutations of its multiset ``counts``.

    Short sequences take the per-symbol loop; from ``SPLIT_MIN_N`` symbols on
    the rank is summed by binary splitting, which gives the same integer.
    """
    seq = np.asarray(sym_idx, dtype=np.int64)
    if seq.ndim != 1 or np.bincount(seq, minlength=len(counts)).tolist() != list(counts):
        raise ValueError(f"counts {list(counts)} do not match the sequence")
    if len(seq) < SPLIT_MIN_N:
        return rank_per_symbol(counts, seq.tolist())
    return rank_binary_split(counts, seq)


def rank_per_symbol(counts: Sequence[int], sym_idx: Sequence[int]) -> int:
    """``rank_in_composition`` by one big-integer step per symbol; the counts
    must match the sequence."""
    rem_counts = list(counts)
    remaining = sum(rem_counts)
    size = multinomial(rem_counts)
    rank = 0
    for x in sym_idx:
        for y in range(x):
            if rem_counts[y]:
                rank += size * rem_counts[y] // remaining
        size = size * rem_counts[x] // remaining
        rem_counts[x] -= 1
        remaining -= 1
    return rank


def rank_binary_split(counts: Sequence[int], x: np.ndarray) -> int:
    """``rank_in_composition`` by binary splitting (Haible & Papanikolaou
    1998); the counts must match the int64 sequence ``x``.

    At position i, q_i = n - i symbols remain, S_i of them below x_i and p_i
    equal to x_i; with size_i the multinomial of the remaining counts, the
    rank is the sum of size_i * S_i / q_i and size_{i+1} = size_i * p_i / q_i.
    A run of positions is (T, P, Q): P and Q are the products of its p and
    q, and T / Q is its part of the sum over the size at its start, so two
    adjacent runs join as (T_l Q_r + P_l T_r, P_l P_r, Q_l Q_r). Since
    S_i + p_i <= q_i <= n, T <= Q < 2^(len * n.bit_length()), so runs of up
    to ``63 // n.bit_length()`` positions (a power of two) are built in int64
    and longer ones as Python ints, until at most ``SPLIT_RUNS`` runs are
    left. An exact fold
    over those (rank += size T / Q, size = size P / Q) keeps the big
    integers at the width of the rank.
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
    size = multinomial(counts)
    rank = 0
    for t, pp, qq in zip(*(a.tolist() for a in runs)):
        rank += size * t // qq
        size = size * pp // qq
    return rank


def _join_pairs(T: np.ndarray, P: np.ndarray, Q: np.ndarray):
    """Runs 2j and 2j + 1 of a binary-splitting level joined into run j."""
    return T[0::2] * Q[1::2] + P[0::2] * T[1::2], P[0::2] * P[1::2], Q[0::2] * Q[1::2]


def unrank_in_composition(counts: Sequence[int], k: int, size: int | None = None) -> list[int]:
    """The sequence at rank ``k`` among the permutations of ``counts``;
    ``size`` is their number, the multinomial of the counts, when the caller
    already holds it."""
    k = operator.index(k)
    rem_counts = list(counts)
    if size is None:
        size = multinomial(rem_counts)
    if not 0 <= k < size:
        raise ValueError(f"rank {k} outside [0, {size})")
    out = []
    for remaining in range(sum(rem_counts), 0, -1):
        y = 0
        for c in rem_counts:
            if c:
                block = size * c // remaining
                if k < block:
                    break
                k -= block
            y += 1
        out.append(y)
        rem_counts[y] -= 1
        size = block
    return out


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
    """Groups of equal rows of a nonempty (N, k) array, in ascending
    lexicographic order, from one stable sort: the row ids grouped (ids
    ascending inside a group), the CSR bounds of the groups in that order,
    and the group of each row."""
    order = np.lexsort(rows.T[::-1])
    grouped = rows[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(grouped[1:] != grouped[:-1], axis=1))))
    bounds = np.append(starts, len(order))
    group_of = np.empty(len(order), dtype=np.int64)
    group_of[order] = np.repeat(np.arange(len(starts)), np.diff(bounds))
    return order, bounds, group_of


class ClassColumns:
    """The per-class columns of a TypeIndex that its class views read. It
    holds no reference to the index, so views cached on the index form no
    reference cycle."""

    __slots__ = ("keys", "centers", "sizes", "members", "bounds")

    def __init__(self, index: "TypeIndex"):
        self.keys = index.keys
        self.centers = index.centers
        self.sizes = index.sizes
        self.members = index.members
        self.bounds = index.bounds


class TypeClass:
    """One class of a TypeIndex, read through the index's columns."""

    __slots__ = ("columns", "id")

    def __init__(self, columns: ClassColumns, cid: int):
        self.columns = columns
        self.id = cid

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(self.columns.keys[self.id].tolist())

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(self.columns.centers[self.id].tolist())

    @property
    def size(self) -> int:
        return self.columns.sizes[self.id]

    @property
    def members(self) -> np.ndarray:
        """Member ids of the class, ascending."""
        bounds = self.columns.bounds
        return self.columns.members[bounds[self.id]:bounds[self.id + 1]]


class TypeIndex:
    """All type classes of one mode at one blocklength, stored as columns.

    Classes are numbered in codec order, ascending by (exact size, key), the
    order in which the type-size code ranks them. Per class: ``keys`` (K,
    kdim), ``centers`` (K, d), exact ``sizes`` (Python ints) and
    ``log2_sizes`` (math.log2 of each exact size). Per member,
    by member id: ``member_class``, ``member_stats`` (composition counts, or
    Markov path-statistic sums) and ``member_log2_sizes`` (log2 of the
    member's exact sequence count). ``members`` holds the member ids grouped
    by class (CSR ``bounds``, ascending inside a class), and
    ``grouped_sizes`` the members' exact sequence counts in that layout.
    """

    def __init__(self, spec, n: int, mode: str, member_keys: np.ndarray,
                 member_sizes: Sequence[int], member_stats: np.ndarray,
                 centers_of_keys: Callable[[np.ndarray], np.ndarray]):
        self.spec = spec
        self.n = n
        self.mode = mode  # "quantized" | "point" | "markov"
        self.member_stats = member_stats
        self.member_log2_sizes = np.fromiter(map(math.log2, member_sizes), float,
                                             count=len(member_stats))
        # one stable sort: classes in key order, member ids ascending inside;
        # a singleton class shares its member's int
        members, bounds, member_class = group_rows(member_keys)
        grouped_sizes = np.array(member_sizes, dtype=object)[members]
        sizes = np.add.reduceat(grouped_sizes, bounds[:-1]).tolist()
        # codec order: a stable argsort of log2 sizes (a singleton's is its
        # member's) leaves only near-equal sizes out of order, and equal sizes
        # have equal logs, so ties keep their key order; the stable sort by
        # exact size then runs over nearly sorted ids
        log2_sizes = self.member_log2_sizes[members[bounds[:-1]]]
        merged = np.flatnonzero(np.diff(bounds) > 1)
        log2_sizes[merged] = [math.log2(sizes[c]) for c in merged.tolist()]
        order = np.array(sorted(np.argsort(log2_sizes, kind="stable").tolist(),
                                key=sizes.__getitem__), dtype=np.int64)
        # renumber the classes in that order and move their member runs along
        self.sizes = list(map(sizes.__getitem__, order.tolist()))
        self.log2_sizes = log2_sizes[order]
        counts = np.diff(bounds)[order]
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        gather = np.repeat(bounds[order] - self.bounds[:-1], counts) + np.arange(len(members))
        self.members = members[gather]
        self.grouped_sizes = grouped_sizes[gather]
        slot = np.empty(len(order), dtype=np.int64)
        slot[order] = np.arange(len(order))
        self.member_class = slot[member_class]
        self.keys = member_keys[self.members[self.bounds[:-1]]]
        self.centers = np.asarray(centers_of_keys(self.keys), dtype=float)

    @property
    def alphabet_size(self) -> int:
        return self.spec.alphabet.size

    @cached_property
    def columns(self) -> ClassColumns:
        return ClassColumns(self)

    @cached_property
    def classes(self) -> tuple[TypeClass, ...]:
        columns = self.columns
        return tuple(TypeClass(columns, c) for c in range(len(self.sizes)))

    def class_sums(self, log2_weights: np.ndarray) -> list[float]:
        """Per-class sums of 2^w over per-member log2 weights w."""
        return np.bincount(self.member_class, weights=np.exp2(log2_weights),
                           minlength=len(self.sizes)).tolist()

    def total_size(self) -> int:
        return sum(self.sizes)

    def member_of(self, xs) -> tuple[int, int]:
        """The member holding a length-n sequence, and the sequence's rank in it."""
        idx = self.spec.alphabet.indices(xs)
        if len(idx) != self.n:
            raise ValueError(f"sequence length {len(idx)} does not match index n={self.n}")
        if self.mode == "markov":
            return pack_path(self.alphabet_size, idx.tolist()), 0
        counts = np.bincount(idx, minlength=self.alphabet_size).tolist()
        return colex_rank(counts), rank_in_composition(counts, idx)

    def sequence_of(self, member: int, within: int, size: int | None = None) -> tuple[int, ...]:
        """Inverse of member_of: the 1-based sequence at rank ``within``;
        ``size`` is the member's exact sequence count, when the caller holds it."""
        if self.mode == "markov":
            digits = unpack_path(self.alphabet_size, member, self.n)
        else:
            digits = unrank_in_composition(self.member_stats[member].tolist(), within, size)
        return tuple(y + 1 for y in digits)

    def class_of_sequence(self, xs) -> TypeClass:
        return TypeClass(self.columns, int(self.member_class[self.member_of(xs)[0]]))

    def export_table(self) -> str:
        """One row per class: center coordinates, member count, exact size."""
        lines = ["# center... members size"]
        for cls in self.classes:
            center = " ".join(repr(c) for c in cls.center)
            lines.append(f"{center} {len(cls.members)} {cls.size}")
        return "\n".join(lines) + "\n"


def check_composition_budget(n: int, m: int, budget: int | None) -> int:
    budget = DEFAULT_COMPOSITION_BUDGET if budget is None else budget
    needed = composition_count(n, m)
    if needed > budget:
        raise BudgetError("composition enumeration", needed, budget,
                          hint="raise the composition budget")
    return needed
