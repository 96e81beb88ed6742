"""The one-to-one type-size encoder/decoder.

Sequences are ranked by ascending exact type-class size (ties broken by the
lexicographic class key), then mapped onto the canonical binary-string
enumeration {empty, 0, 1, 00, 01, 10, 11, 000, ...} in which the k-th string
has length floor(log2(k+1)). The code is one-to-one but not prefix-free.
The sequence of rank k gets the k-th string, so a codeword is carried as the
integer k; only the container file forms its bits.

Within a class, members are ordered colexicographically by composition and
lexicographically by sequence inside a composition (combinatorial number
system indexing); Markov classes order member paths lexicographically. A
rank and an unrank both read the member's exact size from the layout and hand
it, with the counts taken when the sequence was checked, to ``rank_counted``
(binary splitting at every n) or to ``unrank_in_composition``.

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
from .typeclass import TypeClass, rank_out_of_range

BLOCK = 64  # layout positions between two exact checkpoints


@dataclass(frozen=True)
class Codeword:
    """The k-th string of the enumeration {empty, 0, 1, 00, ...}, held as its
    ``index`` k: the string of ``length`` w = floor(log2(k+1)) bits whose
    value is k + 1 - 2^w."""

    index: int

    def __post_init__(self):
        if operator.index(self.index) < 0:
            raise ValueError("codeword index must be nonnegative")

    @property
    def length(self) -> int:
        return (self.index + 1).bit_length() - 1


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
            raise rank_out_of_range(k, self.total)
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
        return Codeword(self.rank(xs))

    def decode(self, codeword: Codeword) -> tuple[int, ...]:
        if codeword.index >= self.total:
            raise ContainerError(
                f"a {codeword.length}-bit codeword is past the last sequence at n={self.index.n}"
            )
        return self.unrank(codeword.index)
