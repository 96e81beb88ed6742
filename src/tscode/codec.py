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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ContainerError
from .typeclass import TypeClass
# Ranks inside a composition live with the index; the codec re-exports them.
from .typeclass import rank_in_composition, unrank_in_composition  # noqa: F401


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


class ClassOrdering:
    """Total order on sequences: classes ascending by (exact size, key)."""

    def __init__(self, index):
        self.index = index
        self.n = index.n
        self.alphabet_size = index.alphabet_size
        self._order = index.class_order
        self._slot = np.empty(len(self._order), dtype=np.int64)
        self._slot[self._order] = np.arange(len(self._order))
        self.offsets = list(accumulate(map(index.sizes.__getitem__, self._order), initial=0))
        self.total = self.offsets[-1]

    @cached_property
    def classes(self) -> list[TypeClass]:
        columns = self.index.columns
        return [TypeClass(columns, c) for c in self._order]

    def rank(self, xs) -> int:
        """Exact rank in [0, |X|^n); a bijection onto that range."""
        index = self.index
        member, within = index.member_of(xs)
        c = int(index.member_class[member])
        lo, hi = index.bounds[c], index.bounds[c + 1]
        pos = lo + int(np.searchsorted(index.members[lo:hi], member))
        return self.offsets[self._slot[c]] + index.prefix[pos] - index.prefix[lo] + within

    def unrank(self, k: int) -> tuple[int, ...]:
        if not (0 <= k < self.total):
            raise ValueError(f"rank {k} outside [0, {self.total})")
        slot = bisect_right(self.offsets, k) - 1
        index = self.index
        c = self._order[slot]
        lo, hi = int(index.bounds[c]), int(index.bounds[c + 1])
        target = index.prefix[lo] + k - self.offsets[slot]
        pos = bisect_right(index.prefix, target, lo, hi) - 1
        return index.sequence_of(int(index.members[pos]), target - index.prefix[pos])

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
