"""The one-to-one type-size encoder/decoder.

Sequences are ranked by ascending exact type-class size (ties broken by the
lexicographic class key), then mapped onto the canonical binary-string
enumeration {empty, 0, 1, 00, 01, 10, 11, 000, ...} in which the k-th string
has length floor(log2(k+1)). The code is one-to-one but not prefix-free.

Within a class, members are ordered colexicographically by composition and
lexicographically by sequence inside a composition (combinatorial number
system indexing); Markov classes order member paths lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContainerError
from .typeclass import multinomial


@dataclass(frozen=True)
class Codeword:
    bits: str

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError(f"codeword must contain only 0/1, got {self.bits!r}")

    @property
    def length(self) -> int:
        return len(self.bits)


def string_of_index(k: int) -> Codeword:
    """k-th string of the enumeration; length floor(log2(k+1))."""
    if k < 0:
        raise ValueError("string index must be nonnegative")
    width = (k + 1).bit_length() - 1
    if width == 0:
        return Codeword("")
    value = k + 1 - (1 << width)
    return Codeword(format(value, f"0{width}b"))


def index_of_string(bits: str) -> int:
    """Inverse of string_of_index: 2^len - 1 + value(bits)."""
    if bits.strip("01"):
        raise ValueError(f"bit string must contain only 0/1, got {bits!r}")
    value = int(bits, 2) if bits else 0
    return (1 << len(bits)) - 1 + value


def rank_in_composition(counts: Sequence[int], sym_idx: Sequence[int]) -> int:
    """Lexicographic index of a sequence among permutations of its multiset."""
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


def unrank_in_composition(counts: Sequence[int], k: int) -> list[int]:
    rem_counts = list(counts)
    remaining = sum(rem_counts)
    size = multinomial(rem_counts)
    out = []
    for _ in range(remaining):
        total = sum(rem_counts)
        for y, c in enumerate(rem_counts):
            if not c:
                continue
            block = size * c // total
            if k < block:
                out.append(y)
                size = block
                rem_counts[y] -= 1
                break
            k -= block
        else:
            raise ValueError("index exceeds composition size")
    return out


class ClassOrdering:
    """Total order on sequences: classes ascending by (exact size, key)."""

    def __init__(self, index):
        self.index = index
        self.n = index.n
        self.alphabet_size = index.alphabet_size
        self.classes = sorted(index.classes, key=lambda c: (c.size, c.key))
        self.offsets = [0]
        for cls in self.classes:
            self.offsets.append(self.offsets[-1] + cls.size)
        self.total = self.offsets[-1]
        self._slot_of_key = {cls.key: i for i, cls in enumerate(self.classes)}

    def _class_slot(self, xs) -> tuple[int, object]:
        cls = self.index.class_of_sequence(xs)
        slot = self._slot_of_key[cls.key]
        return slot, cls

    def rank(self, xs) -> int:
        """Exact rank in [0, |X|^n); a bijection onto that range."""
        slot, cls = self._class_slot(xs)
        base = self.offsets[slot]
        if hasattr(cls, "paths"):
            packed = pack_path(self.alphabet_size, self.index.to_indices(xs))
            pos = int(np.searchsorted(cls.paths, packed))
            if pos >= len(cls.paths) or cls.paths[pos] != packed:
                raise ValueError("sequence missing from its class (corrupt index)")
            return base + pos
        sym_idx = self.index.spec.symbol_indices(xs)
        counts = tuple(int(v) for v in np.bincount(sym_idx, minlength=self.alphabet_size))
        within = 0
        for member, member_size in zip(cls.members, cls.member_sizes):
            if member == counts:
                break
            within += member_size
        else:
            raise ValueError("composition missing from its class (corrupt index)")
        return base + within + rank_in_composition(counts, sym_idx)

    def unrank(self, k: int) -> tuple[int, ...]:
        if not (0 <= k < self.total):
            raise ValueError(f"rank {k} outside [0, {self.total})")
        lo, hi = 0, len(self.classes)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.offsets[mid] <= k:
                lo = mid
            else:
                hi = mid
        cls = self.classes[lo]
        k -= self.offsets[lo]
        if hasattr(cls, "paths"):
            return tuple(int(v) + 1 for v in unpack_path(
                self.alphabet_size, int(cls.paths[k]), self.n))
        for member, block in zip(cls.members, cls.member_sizes):
            if k < block:
                return tuple(y + 1 for y in unrank_in_composition(member, k))
            k -= block
        raise AssertionError("offsets inconsistent with class sizes")

    def encode(self, xs) -> Codeword:
        return string_of_index(self.rank(xs))

    def decode(self, codeword) -> tuple[int, ...]:
        bits = codeword.bits if isinstance(codeword, Codeword) else str(codeword)
        idx = index_of_string(bits)
        if idx >= self.total:
            raise ContainerError(
                f"codeword index {idx} is outside the {self.total} sequences at n={self.n}"
            )
        return self.unrank(idx)


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

