"""The one-to-one type-size encoder/decoder.

Sequences are ranked by ascending exact type-class size (ties broken by the
lexicographic class key), then mapped onto the canonical binary-string
enumeration {empty, 0, 1, 00, 01, 10, 11, 000, ...} in which the k-th string
has length floor(log2(k+1)). The code is one-to-one but not prefix-free.

Within a class, members are ordered colexicographically by composition and
lexicographically by sequence inside a composition (combinatorial number
system indexing); Markov classes order member paths lexicographically. The
rank inside a composition is summed by binary splitting from
``typeclass.SPLIT_MIN_N`` symbols on. A rank and an unrank both read the
member's exact size from the layout and hand it to ``rank_in_composition``
or to the one-pass ``unrank_in_composition``.

A rank is enumerative (Cover 1973): the count of sequences in the members
before a sequence's member, in the index's grouped layout, plus its rank
inside that member. Those counts are kept exactly at every ``BLOCK``-th
layout position only (a sampled cumulative directory, Jacobson 1989), so a
rank or unrank adds at most ``BLOCK - 1`` member sizes to one checkpoint.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ContainerError
from .typeclass import TypeClass

BLOCK = 64  # layout positions between two exact checkpoints


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
    """Total order on sequences: classes ascending by (exact size, key), the
    order in which the index numbers them.

    ``marks[b]`` is the exact count of sequences before layout position
    ``b * BLOCK`` of the index's member layout, and ``marks[-1]`` the total;
    a sequence's rank is the checkpoint of its member's block, plus the sizes
    of the members before it in that block, plus its rank inside the member.
    """

    def __init__(self, index):
        self.index = index
        sizes = index.grouped_sizes
        blocks = np.add.reduceat(sizes, np.arange(0, len(sizes), BLOCK)).tolist()
        self.marks = list(accumulate(blocks, initial=0))
        self.total = self.marks[-1]

    # tsbench reads it; ROADMAP item 5 removes it after item 3
    @property
    def classes(self) -> tuple[TypeClass, ...]:
        return self.index.classes

    def rank(self, xs) -> int:
        """Exact rank in [0, |X|^n); a bijection onto that range."""
        pos, within = self.index.locate(xs)
        start = pos - pos % BLOCK
        return sum(self.index.grouped_sizes[start:pos].tolist(), self.marks[start // BLOCK] + within)

    def unrank(self, k: int) -> tuple[int, ...]:
        k = operator.index(k)
        if not (0 <= k < self.total):
            raise ValueError(f"rank {k} outside [0, {self.total})")
        block = bisect_right(self.marks, k) - 1
        k -= self.marks[block]
        pos = block * BLOCK
        for size in self.index.grouped_sizes[pos:pos + BLOCK].tolist():
            if k < size:
                break
            k -= size
            pos += 1
        return self.index.sequence_of(int(self.index.members[pos]), k, size)

    def encode(self, xs) -> Codeword:
        return string_of_index(self.rank(xs))

    def decode(self, codeword: Codeword) -> tuple[int, ...]:
        idx = index_of_string(codeword.bits)
        if idx >= self.total:
            raise ContainerError(
                f"codeword index {idx} is outside the {self.total} sequences at n={self.index.n}"
            )
        return self.unrank(idx)
