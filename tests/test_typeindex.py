"""Properties of the columnar type index, checked exhaustively on small specs.

One index layout serves the quantized, point and Markov modes. On random
small families every sequence is enumerated and the codec order is checked
against definitions computed here directly from the sequences: the rank is
a bijection onto [0, m^n), classes occupy contiguous rank ranges in
ascending (size, key) order, every class holds exactly the sequences with
its key, and class masses equal the per-sequence probability sums.
"""

import gc
import math
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tscode.codec import ClassOrdering
from tscode.family import FamilySpec, evaluate, suffstat
from tscode.markov import (
    MarkovFamilySpec,
    markov_class_masses,
    markov_type_index,
    transition_matrix,
)
from tscode.pointtypes import ExactStatMap, derive_lattice, point_class_of, point_type_index
from tscode.quantized import Grid, build_type_index
from tscode.rates import SourceSpec, class_masses

MAX_N = {2: 7, 3: 7, 4: 5}


def _check_ordering(ordering, m, key_of, prob_of, masses):
    """Exhaustive checks of one ordering; key_of and prob_of work per sequence."""
    index = ordering.index
    n = index.n
    seqs = list(product(range(1, m + 1), repeat=n))
    # class ids are the codec slots, and (size, key) ascends along the columns
    assert [c.id for c in ordering.classes] == list(range(len(index.sizes)))
    pairs = list(zip(index.sizes, map(tuple, index.keys.tolist())))
    assert all(a < b for a, b in zip(pairs, pairs[1:]))
    ranks = []
    exhaustive = [[] for _ in index.sizes]
    for xs in seqs:
        r = ordering.rank(xs)
        ranks.append(r)
        assert ordering.unrank(r) == xs
        cls = index.class_of_sequence(xs)
        assert cls.key == key_of(xs)
        assert ordering.offsets[cls.id] <= r < ordering.offsets[cls.id + 1]
        exhaustive[cls.id].append(prob_of(xs))
    assert sorted(ranks) == list(range(m ** n)) == list(range(ordering.total))
    assert pairs == [(c.size, c.key) for c in ordering.classes]
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


class TestColumnarIndex:
    @given(memoryless_cases(), st.sampled_from(["quantized", "point"]))
    @settings(max_examples=60, deadline=None)
    def test_memoryless_modes(self, case, mode):
        spec, n, s, anchor, theta = case
        m = spec.alphabet.size
        if mode == "quantized":
            grid = Grid.create(n=n, s=s, d=spec.d, anchor=anchor)
            index = build_type_index(spec, n, grid)

            def key_of(xs):
                return tuple(grid.cell_index(suffstat(spec, xs)).tolist())
        else:
            lmap = derive_lattice(ExactStatMap.from_rational_tau(spec))
            index = point_type_index(spec, lmap, n)

            def key_of(xs):
                return point_class_of(lmap, spec, xs).scaled
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
        assert index.class_of_sequence(xs).size >= 1
    del index, ordering, indexes
    assert gc.collect() == 0
