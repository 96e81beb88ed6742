"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 ties the class-cut rate ceil(log2 M(eps))/n to the codec's real
codeword lengths: on the full epsilon grid it rebuilds the class cut M and the
length oracle min{k : P[len >= k] <= eps} from exhaustive per-sequence masses
and asserts the exact integer identities between them. By design the rate
is the class-granular ceil(log2 M) while the oracle is the sequence-granular
bit_length(b), so the two may differ; the rate is never more than one bit
below the oracle, and the count of differing cells is printed, not asserted.
"""

import math
import time
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from tscode.codec import ClassOrdering, string_of_index
from tscode.family import FamilySpec, entropy, evaluate, mle, psi
from tscode.markov import (
    MarkovFamilySpec,
    markov_type_index,
    entropy_rate,
    varentropy_rate,
)
from tscode.pointtypes import ExactStatMap, derive_lattice, point_type_index
from tscode.quantized import Grid, build_type_index
from tscode.rates import (
    SourceSpec,
    m_eps,
    max_sandwich_deviation,
    ml_approx_check,
    normality_check,
    third_order_fit,
)
from conftest import SQRT2, theta_for_p1


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _sqrt2_pieces():
    fam = FamilySpec.create([[0.0], [1.0], [SQRT2]], rho_max=3.0)
    sm = ExactStatMap(
        spec=fam,
        basis_names=(("1", "sqrt2"),),
        basis_hints=((1.0, SQRT2),),
        coeffs=(((Fraction(0), Fraction(0)),),
                ((Fraction(1), Fraction(0)),),
                ((Fraction(0), Fraction(1)),)),
    )
    return fam, derive_lattice(sm), sm


def test_criterion_1_codec_bijectivity():
    """Exhaustive encode/decode round trips, quantized s=1 and point modes,
    plus the Markov flip family; zero failures in under two minutes."""
    start = time.time()
    failures = 0
    checked = 0

    def sweep(ordering, m, n):
        nonlocal failures, checked
        seen = set()
        for xs in product(range(1, m + 1), repeat=n):
            r = ordering.rank(xs)
            cw = string_of_index(r)
            if ordering.unrank(r) != xs or ordering.decode(cw) != xs:
                failures += 1
            seen.add(r)
            checked += 1
        if seen != set(range(m ** n)):
            failures += 1

    bern = FamilySpec.create([[0.0], [1.0]], rho_max=3.0)
    bern_lattice = derive_lattice(ExactStatMap.from_rational_tau(bern))
    for n in range(1, 13):
        sweep(ClassOrdering(build_type_index(bern, n, Grid.create(n=n, s=1.0, d=1))), 2, n)
        sweep(ClassOrdering(point_type_index(bern, bern_lattice, n)), 2, n)

    tern, lmap, _ = _sqrt2_pieces()
    for n in range(1, 9):
        sweep(ClassOrdering(build_type_index(tern, n, Grid.create(n=n, s=1.0, d=1))), 3, n)
        sweep(ClassOrdering(point_type_index(tern, lmap, n)), 3, n)

    flip = MarkovFamilySpec.create([[0.0], [1.0], [1.0], [0.0]], rho_max=3.0, x0=1)
    for n in range(1, 13):
        sweep(ClassOrdering(markov_type_index(flip, n, Grid.create(n=n, s=1.0, d=1))), 2, n)

    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 120
    _report(1, ok, f"{checked} round trips, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120


def test_criterion_2_codebook_formula_oracle_equivalence():
    """The class-cut rate ceil(log2 M(eps))/n against the exhaustive
    codeword-length distribution, epsilon on the 0.01 grid up to 0.50.

    Per-sequence masses are pmf products placed at their ClassOrdering rank,
    independently of class_masses. On every grid cell the test asserts:

    (a) m_eps's M equals M_def, the smallest offset between distinct class
        sizes whose exhaustive suffix mass is <= eps;
    (b) the reported rate is (M_def - 1).bit_length() bits;
    (c) the length oracle k_def = min{k : P[len >= k] <= eps} equals
        b.bit_length(), where b <= M_def is the smallest sequence-granular
        prefix whose suffix mass is <= eps;
    (d) k_def - 1 <= k_formula and P[len > k_formula] <= eps, so the codec's
        own lengths meet the formula's rate under the len > k convention.

    By design the rate and the len >= k oracle are different quantities,
    ceil(log2 M) vs bit_length(b) (e.g. 1 vs 2 bits for any binary source at
    n=1); on this grid they differ by exactly one bit, in either direction,
    on the cells counted in the printed line, which is not asserted.

    A class mass within 1e-12 of eps (the mass accuracy that
    test_mass_partition_identity pins) is a float tie that either side may
    resolve: every oracle quantity is worked out at eps - 1e-12 and at
    eps + 1e-12, both must satisfy (a)-(d) on ordinary cells, and at least
    one on a tie cell.
    """
    instances = [
        (FamilySpec.create([[0.0], [1.0]], rho_max=3.0), theta_for_p1(0.3), range(1, 11)),
        (FamilySpec.create([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], rho_max=3.0),
         (0.6, -0.4), range(1, 11)),
    ]
    epsilons = [round(0.01 * j, 2) for j in range(1, 51)]
    tol = 1e-12
    violations = []
    gap_cells = 0
    tie_cells = 0
    cells = 0
    for fam, theta, ns in instances:
        src = SourceSpec(fam, theta)
        ev = evaluate(fam, np.asarray(theta))
        m = fam.alphabet.size
        for n in ns:
            ordering = ClassOrdering(build_type_index(fam, n, Grid.create(n=n, s=1.0, d=fam.d)))
            total = ordering.total
            mass_by_rank = [0.0] * total
            for xs in product(range(1, m + 1), repeat=n):
                mass = 1.0
                for x in xs:
                    mass *= ev.pmf[x - 1]
                mass_by_rank[ordering.rank(xs)] = mass
            # suffix[i] = P[rank >= i]; lengths are floor(log2(rank+1)), so
            # P[len >= k] = suffix[2^k - 1] and P[len > k] = suffix[2^(k+1) - 1]
            suffix = [0.0] * (total + 1)
            for i in range(total - 1, -1, -1):
                suffix[i] = suffix[i + 1] + mass_by_rank[i]
            sizes = ordering.index.sizes
            starts = list(accumulate(sizes, initial=0))
            cuts = [starts[j] for j in range(1, len(sizes) + 1)
                    if j == len(sizes) or sizes[j - 1] != sizes[j]]

            def p_len_at_least(k):
                return suffix[min(2 ** k - 1, total)]

            def oracle(e):
                m_def = next(c for c in cuts if suffix[c] <= e)
                b = next(i for i in range(1, total + 1) if suffix[i] <= e)
                k_def = next(k for k in range(total.bit_length() + 1)
                             if p_len_at_least(k) <= e)
                return m_def, b, k_def

            for eps in epsilons:
                cells += 1
                rep = m_eps(src, ordering.index, eps)
                k_formula = round(rep.rate * n)
                resolutions = {e: oracle(e) for e in (eps - tol, eps + tol)}
                holds = [
                    rep.M == m_def                                  # (a)
                    and k_formula == (m_def - 1).bit_length()       # (b)
                    and k_def == b.bit_length() and b <= m_def      # (c)
                    and k_def - 1 <= k_formula                      # (d)
                    and p_len_at_least(k_formula + 1) <= e
                    for e, (m_def, b, k_def) in resolutions.items()
                ]
                tie = len(set(resolutions.values())) > 1
                tie_cells += tie
                if not (any(holds) if tie else all(holds)):
                    violations.append((m, n, eps, rep.M, k_formula, resolutions))
                gap_cells += any(k_formula != k_def for _, _, k_def in resolutions.values())
    ok = not violations
    _report(2, ok, f"{cells} grid cells, identities (a)-(d) violated on "
                   f"{len(violations)}; formula/oracle one-bit gaps on {gap_cells} "
                   f"cells; {tie_cells} float-tie cells")
    assert not violations, violations[:5]


def test_criterion_3_excess_slope_quantized():
    """Bernoulli p(1)=0.3, eps=0.1, n in 16..1024: slope within -0.5 +/- 0.2."""
    start = time.time()
    src = SourceSpec(FamilySpec.create([[0.0], [1.0]], rho_max=3.0), theta_for_p1(0.3))
    rep = third_order_fit(src, [16, 32, 64, 128, 256, 512, 1024], 0.1, mode="quantized")
    elapsed = time.time() - start
    ok = abs(rep.slope - (-0.5)) <= 0.2 and elapsed < 300
    _report(3, ok, f"slope {rep.slope:+.4f} (target -0.5 +/- 0.2), {elapsed:.1f}s")
    assert abs(rep.slope - (-0.5)) <= 0.2
    assert elapsed < 300


def test_criterion_4_point_vs_quantized_separation():
    """tau=(0,1,sqrt2): point slope ~ 0, quantized ~ -0.5, separation >= 0.3."""
    start = time.time()
    fam, _, sm = _sqrt2_pieces()
    src = SourceSpec(fam, (1.0,))
    ns = [16, 32, 64, 128, 256, 512, 1024]
    rep_q = third_order_fit(src, ns, 0.1, mode="quantized", s=1.0)
    rep_p = third_order_fit(src, ns, 0.1, mode="point", stat_map=sm)
    sep = rep_p.slope - rep_q.slope
    elapsed = time.time() - start
    ok = (abs(rep_p.slope) <= 0.2 and abs(rep_q.slope + 0.5) <= 0.2
          and sep >= 0.3 and elapsed < 600)
    _report(4, ok, f"point {rep_p.slope:+.4f}, quantized {rep_q.slope:+.4f}, "
                   f"separation {sep:.4f}, {elapsed:.1f}s")
    assert abs(rep_p.slope - 0.0) <= 0.2
    assert abs(rep_q.slope - (-0.5)) <= 0.2
    assert sep >= 0.3
    assert elapsed < 600


def test_criterion_5_ml_approximation_bound():
    """0 <= plug-in gap <= 2*kappa*s for every composition, both families,
    s in {0.5, 1, 2}, n in {8, 16, 32, 64}."""
    families = [FamilySpec.create([[0.0], [1.0]], rho_max=3.0),
                FamilySpec.create([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], rho_max=2.0)]
    worst_ratio = 0.0
    for fam in families:
        for s in (0.5, 1.0, 2.0):
            bound = 2 * fam.kappa * s
            for n in (8, 16, 32, 64):
                gap = ml_approx_check(fam, Grid.create(n=n, s=s, d=fam.d), n)
                assert 0.0 <= gap <= bound, (fam.d, s, n, gap, bound)
                worst_ratio = max(worst_ratio, gap / bound)
    _report(5, True, f"zero violations; worst gap/bound ratio {worst_ratio:.3f}")


def test_criterion_6_type_size_sandwich():
    """|log2 |T| - r| <= 2*kappa*s + C* with C* fitted at n=8, zero
    violations at n in {16, 32, 64}."""
    families = [FamilySpec.create([[0.0], [1.0]], rho_max=14.0),
                FamilySpec.create([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], rho_max=14.0)]
    checked = 0
    for fam in families:
        for s in (0.5, 1.0, 2.0):
            bound = 2 * fam.kappa * s
            g8 = Grid.create(n=8, s=s, d=fam.d)
            dev8 = max_sandwich_deviation(fam, g8, build_type_index(fam, 8, g8))
            cstar = max(0.0, dev8 - bound)
            for n in (16, 32, 64):
                grid = Grid.create(n=n, s=s, d=fam.d)
                dev = max_sandwich_deviation(fam, grid, build_type_index(fam, n, grid))
                assert dev <= bound + cstar + 1e-9, (fam.d, s, n, dev, bound + cstar)
                checked += 1
    _report(6, True, f"{checked} (family, s, n) cells, zero violations")


def test_criterion_7_normality_stability():
    """Bernoulli p(1)=0.3, 1e5 samples: sup-deviation * sqrt(n) stays within
    1.5x the value fitted at n=64; fixed seed reproduces the statistic."""
    src = SourceSpec(FamilySpec.create([[0.0], [1.0]], rho_max=3.0), theta_for_p1(0.3))
    seed = 20260809
    values = {}
    for n in (64, 256, 1024):
        dev = normality_check(src, n, 100_000, seed=seed)
        values[n] = dev * math.sqrt(n)
    again = normality_check(src, 64, 100_000, seed=seed)
    reproducible = again * 8 == values[64]
    fitted = values[64]
    ok = reproducible and all(v <= 1.5 * fitted for v in values.values())
    _report(7, ok, "dev*sqrt(n) = " +
            ", ".join(f"n={n}: {v:.3f}" for n, v in values.items()) +
            f" (limit {1.5 * fitted:.3f})")
    assert reproducible
    for n, v in values.items():
        assert v <= 1.5 * fitted, (n, v, fitted)


def test_criterion_8_exponential_family_numerics():
    """Gradient/Hessian finite differences, MLE stationarity, entropy closed
    form, and exact partition identities, all within stated tolerances."""
    start = time.time()
    rng = np.random.default_rng(123)
    families = [FamilySpec.create([[0.0], [1.0]], rho_max=3.0),
                FamilySpec.create([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], rho_max=2.0),
                FamilySpec.create([[0.0], [1.0], [SQRT2]], rho_max=3.0)]
    worst = {"grad": 0.0, "hess": 0.0, "entropy": 0.0, "norm": 0.0, "mle": 0.0}
    for fam in families:
        d = fam.d
        for _ in range(40):
            theta = rng.normal(size=d)
            theta *= rng.uniform(0, fam.rho_max * 0.99) / max(np.linalg.norm(theta), 1e-12)
            ev = evaluate(fam, theta)
            worst["norm"] = max(worst["norm"], abs(math.fsum(ev.pmf) - 1.0))
            step = 1e-5
            for j in range(d):
                e = np.zeros(d)
                e[j] = step
                fd = (psi(fam, theta + e) - psi(fam, theta - e)) / (2 * step)
                worst["grad"] = max(worst["grad"], abs(fd - ev.grad_psi[j]))
            centered = fam.tau_array - ev.grad_psi
            cov = centered.T @ (centered * ev.pmf[:, None])
            worst["hess"] = max(worst["hess"], float(np.abs(ev.hess_psi - cov).max()))
            direct = float(-(ev.pmf @ np.log2(ev.pmf)))
            worst["entropy"] = max(worst["entropy"],
                                   abs(entropy(fam, theta) - direct))
        for _ in range(40):
            w = rng.dirichlet([2.0] * fam.alphabet.size)
            target = w @ fam.tau_array
            theta_hat = mle(fam, target)
            if np.linalg.norm(theta_hat) < fam.rho_max - 1e-6:
                ev = evaluate(fam, theta_hat)
                worst["mle"] = max(worst["mle"], float(np.abs(ev.grad_psi - target).max()))
        # exact partition identities at desk scale
        for n in (4, 6):
            idx = build_type_index(fam, n, Grid.create(n=n, s=1.0, d=fam.d))
            assert sum(idx.sizes) == fam.alphabet.size ** n
    elapsed = time.time() - start
    ok = (worst["grad"] <= 1e-6 and worst["hess"] <= 1e-8 and
          worst["entropy"] <= 1e-12 and worst["norm"] <= 1e-12 and
          worst["mle"] <= 1e-9 and elapsed < 60)
    _report(8, ok, f"grad {worst['grad']:.2e}, hess {worst['hess']:.2e}, "
                   f"entropy {worst['entropy']:.2e}, mle {worst['mle']:.2e}, "
                   f"{elapsed:.1f}s")
    assert worst["grad"] <= 1e-6
    assert worst["hess"] <= 1e-8
    assert worst["entropy"] <= 1e-12
    assert worst["norm"] <= 1e-12
    assert worst["mle"] <= 1e-9
    assert elapsed < 60


def test_criterion_9_markov():
    """Entropy rate vs exhaustive expectation at n=12 within 0.02 bits,
    varentropy rate vs exhaustive extrapolation within 2 percent, exact
    partition, exact round trip."""
    from tscode.markov import _all_path_stats

    flip = MarkovFamilySpec.create([[0.0], [1.0], [1.0], [0.0]], rho_max=3.0, x0=1)
    theta = np.array([1.0])
    n = 12
    stats = _all_path_stats(flip, n)
    logp = stats @ theta - n * flip.psi(theta)
    w = np.exp2(logp)
    exhaustive_h = float(-(w @ logp)) / n
    h_gap = abs(exhaustive_h - entropy_rate(flip, theta))

    var_per_n = {}
    for nn in (10, 12, 14):
        st = _all_path_stats(flip, nn)
        lp = st @ theta - nn * flip.psi(theta)
        ww = np.exp2(lp)
        mean = float(-(ww @ lp))
        var_per_n[nn] = float(ww @ (-lp - mean) ** 2) / nn
    xs = np.array([1 / k for k in var_per_n])
    ys = np.array(list(var_per_n.values()))
    extrapolated = float(np.polyfit(xs, ys, 1)[1])
    v_rel = abs(varentropy_rate(flip, theta) - extrapolated) / extrapolated

    idx = markov_type_index(flip, n, Grid.create(n=n, s=1.0, d=1))
    partition_exact = sum(idx.sizes) == 2 ** n
    ordering = ClassOrdering(idx)
    round_trip_failures = sum(
        1 for xs_seq in product((1, 2), repeat=n)
        if ordering.decode(ordering.encode(xs_seq)) != xs_seq
    )
    ok = (h_gap <= 0.02 and v_rel <= 0.02 and partition_exact
          and round_trip_failures == 0)
    _report(9, ok, f"entropy gap {h_gap:.2e}, varentropy rel err {v_rel:.2e}, "
                   f"partition {'exact' if partition_exact else 'BROKEN'}, "
                   f"{round_trip_failures} round-trip failures")
    assert h_gap <= 0.02
    assert v_rel <= 0.02
    assert partition_exact
    assert round_trip_failures == 0
