"""Each check of the benchmark passes on a right answer and fails on a
planted wrong one.

Run from the repository root:  python3 -m pytest -q tsbench/test_checks.py
"""

import math
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from tscode import codec, container, family, markov, quantized, rates  # noqa: E402

TERNARY_TAU = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
TERNARY_THETA = (0.6, -0.4)


@pytest.fixture(scope="module")
def ternary():
    fam = family.FamilySpec.create(TERNARY_TAU, rho_max=2.0)
    n = 6
    ordering = codec.ClassOrdering(
        quantized.build_type_index(fam, n, quantized.Grid.create(n=n, s=1.0, d=2)))
    return fam, n, ordering, oracle.pair_table(n)


def _round_trip(ordering, xs, codeword=None):
    cw = codeword if codeword is not None else ordering.encode(xs)
    sent = container.Container(spec_hash=bytes(32), mode="quantized", s=1.0,
                               anchor=(0.0, 0.0), x0=None, n=len(xs), codeword=cw)
    received = container.unpack(container.pack(sent))
    return sent, received, ordering.decode(received.codeword)


def test_swapped_codeword_fails_the_round_trip_check(ternary):
    _, n, ordering, table = ternary
    xs = (1,) * n                # smallest class: a short codeword
    ys = (1, 2, 3, 1, 2, 3)      # a large class: a long codeword
    bounds = table.length_bounds(table.class_size(oracle.symbol_counts(xs, 3)))
    assert oracle.round_trip_ok(_round_trip(ordering, xs), xs, *bounds)
    planted = _round_trip(ordering, xs, codeword=ordering.encode(ys))
    assert not oracle.round_trip_ok(planted, xs, *bounds)


def test_length_outside_reference_range_fails(ternary):
    _, n, ordering, table = ternary
    xs = (1, 2, 3, 1, 2, 3)
    lo, hi = table.length_bounds(table.class_size(oracle.symbol_counts(xs, 3)))
    out = _round_trip(ordering, xs)
    assert lo <= out[0].codeword.length <= hi
    assert not oracle.round_trip_ok(out, xs, out[0].codeword.length + 1, hi + 1)


def test_length_bounds_hold_for_every_sequence(ternary):
    """The reference range is right: exhaustive over all 3^6 sequences."""
    import itertools
    _, n, ordering, table = ternary
    for xs in itertools.product((1, 2, 3), repeat=n):
        lo, hi = table.length_bounds(table.class_size(oracle.symbol_counts(xs, 3)))
        assert lo <= ordering.encode(xs).length <= hi


def _rate_case(n=8):
    fam = family.FamilySpec.create(TERNARY_TAU, rho_max=2.0)
    src = rates.SourceSpec(fam, TERNARY_THETA)
    index = quantized.build_type_index(fam, n, quantized.Grid.create(n=n, s=1.0, d=2))
    table = oracle.pair_table(n)
    p = oracle.pmf(TERNARY_TAU, TERNARY_THETA)
    enum = oracle.enumerate_classes(
        3, n, lambda xs: (xs.count(2), xs.count(3)), oracle.iid_prob(p))
    ref = (table.sizes, table.masses(p), enum)
    eps = (0.1, 0.2)
    out = ([c.size for c in index.classes], rates.class_masses(src, index),
           [rates.m_eps(src, index, e) for e in eps])
    return out, ref, n, eps


def test_rates_check_passes_on_the_program_output():
    out, ref, n, eps = _rate_case()
    assert oracle.rates_ok(out, ref, 3, n, eps)


def test_m_one_class_size_group_off_fails():
    out, ref, n, eps = _rate_case()
    sizes, masses, reports = out
    # the cuts between distinct class sizes; plant the neighbour of the true one
    cuts, total = [], 0
    for size in sorted(set(sizes)):
        total += size * sizes.count(size)
        cuts.append(total)
    i = cuts.index(reports[0].M)
    planted = cuts[i + 1] if i + 1 < len(cuts) else cuts[i - 1]
    wrong = rates.RateReport(n=n, epsilon=eps[0], gamma=reports[0].gamma, M=planted,
                             rate=(planted - 1).bit_length() / n, mode="quantized")
    assert not oracle.rate_report_ok(wrong, ref[1], eps[0], n)
    assert not oracle.rates_ok((sizes, masses, [wrong, reports[1]]), ref, 3, n, eps)


def test_class_mass_perturbed_by_1e9_fails():
    out, ref, n, eps = _rate_case()
    sizes, masses, reports = out
    planted = list(masses)
    planted[len(planted) // 2] += 1e-9
    assert not oracle.masses_match(list(zip(sizes, planted)), ref[1])
    assert not oracle.rates_ok((sizes, planted, reports), ref, 3, n, eps)


def test_class_sizes_off_by_one_fail():
    out, ref, n, eps = _rate_case()
    sizes, masses, reports = out
    planted = list(sizes)
    planted[0] += 1
    assert not oracle.sizes_match(planted, ref[0], 3, n)


def test_class_cut_reads_a_float_tie_either_way():
    """Binary n = 2, P(1) = 0.3, eps = 0.42 = 2 * 0.3 * 0.7: one class mass
    equals eps, so both cuts are admissible."""
    p = [0.3, 0.7]
    pairs = oracle.enumerate_classes(2, 2, lambda xs: xs.count(2), oracle.iid_prob(p))
    assert oracle.class_cut(pairs, 0.42) == {2, 4}
    assert oracle.class_cut(pairs, 0.3) == {4}


def test_markov_rates_check_and_planted_mass():
    n = 6
    rot = markov.MarkovFamilySpec.create(
        [[0, 0], [1, 0], [0, 1], [0, 1], [0, 0], [1, 0], [1, 0], [0, 1], [0, 0]],
        rho_max=2.0, x0=1)
    theta = (0.5, -1.0)
    index = markov.markov_type_index(rot, n, quantized.Grid.create(n=n, s=1.0, d=2))
    q = oracle.rotation_increment_pmf(((0, 0), (1, 0), (0, 1)), theta)
    enum = oracle.enumerate_classes(
        3, n, lambda xs: oracle.rotation_counts(xs, 1)[1:], oracle.rotation_prob(q, 1))
    table = oracle.pair_table(n)
    ref = (table.sizes, table.masses(q), enum)
    eps = (0.1, 0.2)
    masses = markov.markov_class_masses(index, theta)
    out = ([c.size for c in index.classes], masses,
           [markov.markov_m_eps(index, theta, e) for e in eps])
    assert oracle.rates_ok(out, ref, 3, n, eps)
    planted = list(masses)
    planted[0] -= 1e-9
    assert not oracle.rates_ok((out[0], planted, out[2]), ref, 3, n, eps)


def test_non_stationary_theta_fails_the_kkt_check():
    rng = random.Random(5)
    fam = family.FamilySpec.create(TERNARY_TAU, rho_max=2.0)
    targets = [oracle.draw_hull_point(rng, TERNARY_TAU) for _ in range(10)]
    thetas = [family.mle(fam, t) for t in targets]
    assert oracle.mle_ok(TERNARY_TAU, 2.0, targets, thetas)
    interior = next(i for i, th in enumerate(thetas) if math.hypot(*th) < 1.9)
    planted = list(thetas)
    planted[interior] = [v + 0.01 for v in thetas[interior]]
    assert not oracle.mle_ok(TERNARY_TAU, 2.0, targets, planted)


def test_theta_outside_the_ball_fails_the_kkt_check():
    assert oracle.kkt_residual(((0.0,), (1.0,)), 3.0, [1.0], [3.5]) == math.inf


def test_ml_gap_outside_its_range_fails():
    kappa, s = 1.5, 2.0
    assert oracle.ml_gap_ok(0.3, kappa, s)
    assert not oracle.ml_gap_ok(2 * kappa * s + 1e-6, kappa, s)
    assert not oracle.ml_gap_ok(-1e-12, kappa, s)


def test_sandwich_above_its_bound_fails():
    kappa, s, dev8 = 7.0, 1.0, 1.5
    assert oracle.sandwich_ok(13.9, dev8, kappa, s)
    assert not oracle.sandwich_ok(14.1, dev8, kappa, s)
    # C* comes from the smallest n
    assert oracle.sandwich_ok(15.0, 16.0, kappa, s)


def test_normality_not_falling_or_too_large_fails():
    assert oracle.normality_ok(0.07, 64)
    assert oracle.normality_ok(0.035, 256, 0.07)
    assert not oracle.normality_ok(0.08, 256, 0.07)
    assert not oracle.normality_ok(oracle.NORMALITY_CONST / 8 + 1e-6, 64)


def test_point_slope_not_above_quantized_fails():
    assert oracle.slopes_ok([-0.02, 0.02], [-0.39, -0.58])
    assert not oracle.slopes_ok([-0.40, 0.02], [-0.39, -0.58])


def test_cli_outputs():
    stdout = ("     n  epsilon        gamma       rate  M\n"
              "   512   0.1000     1.234567   1.500000  12345\n")
    assert oracle.rate_stdout_ok(stdout, 512, {12345})
    assert not oracle.rate_stdout_ok(stdout, 512, {12346})
    assert oracle.decoded_text_ok("1 2 3\n", (1, 2, 3))
    assert not oracle.decoded_text_ok("1 3 2\n", (1, 2, 3))


def test_sqrt2_cell_matches_the_grid():
    """The exact cell formula agrees with Grid.cell_index wherever the float
    statistic is far from a cell boundary, which is everywhere here."""
    n = 512
    grid = quantized.Grid.create(n=n, s=1.0, d=1)
    for k3 in range(n + 1):
        for k2 in (0, n - k3):
            stat = (k2 + k3 * math.sqrt(2.0)) / n
            assert int(grid.cell_index([stat])[0]) == oracle.sqrt2_cell(k2, k3)
