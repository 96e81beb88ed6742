"""Reference computations made apart from tscode, and the checks built on them.

Only the standard library is used: exact class sizes come from math.comb,
class keys from exact integer arithmetic on symbol counts, class masses from
log-space products of a pmf computed here, and the codebook cut from exact
big-integer sums of those masses. Nothing here reads a stored copy of the
program's output; every check compares against these computations or
against a property the method must have.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

# Mass accuracy that acceptance criterion 2 reads float ties with: a class
# whose suffix mass lies within TIE of epsilon may be cut either way.
TIE = 1e-12
# Bound on the normality deviation times sqrt(n); the README states it.
NORMALITY_CONST = 1.0
KKT_TOL = 1e-8


# -- families --------------------------------------------------------------

def pmf(tau, theta):
    """p(x) proportional to 2^<theta, tau(x)>, computed with a max shift."""
    exps = [math.fsum(t * th for t, th in zip(row, theta)) for row in tau]
    top = max(exps)
    w = [2.0 ** (e - top) for e in exps]
    z = math.fsum(w)
    return [v / z for v in w]


def multinomial(counts):
    out, total = 1, 0
    for k in counts:
        total += k
        out *= math.comb(total, k)
    return out


def compositions(n, m):
    """All m-part compositions of n; the order is irrelevant here."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def symbol_counts(xs, m):
    counts = [0] * m
    for x in xs:
        counts[x - 1] += 1
    return tuple(counts)


def rotation_counts(xs, x0):
    """Counts of the increments x_i - x_{i-1} mod 3, starting from x0.

    Paths of the rotation chain and increment sequences are in bijection,
    and the pair statistic of a path is (#increments of 1, #increments of 2).
    """
    counts = [0, 0, 0]
    prev = x0
    for x in xs:
        counts[(x - prev) % 3] += 1
        prev = x
    return tuple(counts)


def sqrt2_cell(k2, k3):
    """Exact s = 1 cuboid index of the average statistic (k2 + k3*sqrt2)/n.

    The half-open cell k holds t with k - 1/2 < n*t <= k + 1/2, so
    k = k2 + ceil(k3*sqrt2 - 1/2). For k3 >= 1, sqrt(8*k3^2) is irrational,
    hence ceil(k3*sqrt2 - 1/2) = (isqrt(8*k3^2) + 1) // 2, which also holds
    at k3 = 0.
    """
    return k2 + (math.isqrt(8 * k3 * k3) + 1) // 2


class ClassTable:
    """Exact classes of one (family, mode, n), built from the count vectors
    (compositions, or increment counts) that fall in each class.

    ``key_of_counts`` maps a count vector to its class key, so one table
    serves the quantized cells, the point classes and the rotation chain.
    """

    def __init__(self, m, n, key_of_counts):
        self.m = m
        self.n = n
        self.key_of_counts = key_of_counts
        self.size_of = {}
        for counts in compositions(n, m):
            key = key_of_counts(counts)
            self.size_of[key] = self.size_of.get(key, 0) + multinomial(counts)
        self.sizes = sorted(self.size_of.values())
        # distinct sizes with the number of sequences strictly below and
        # at or below each of them
        self.distinct = []
        self.below = []
        self.upto = []
        total = 0
        for size, group in itertools.groupby(self.sizes):
            k = len(list(group))
            self.distinct.append(size)
            self.below.append(total)
            total += k * size
            self.upto.append(total)

    def class_size(self, counts):
        return self.size_of[self.key_of_counts(counts)]

    def length_bounds(self, class_size):
        """Codeword-length range of a sequence whose class has this size.

        Its rank lies in [lo, hi - 1], lo (hi) counting the sequences in
        classes smaller than (no larger than) its own; the k-th string has
        floor(log2(k + 1)) bits.
        """
        i = bisect.bisect_left(self.distinct, class_size)
        lo, hi = self.below[i], self.upto[i]
        return (lo + 1).bit_length() - 1, hi.bit_length() - 1

    def masses(self, p):
        """(size, mass) of every class under the per-symbol (or
        per-increment) pmf p."""
        log2p = [math.log2(v) for v in p]
        terms = {}
        for c in compositions(self.n, self.m):
            lm = math.log2(multinomial(c)) + math.fsum(k * lp for k, lp in zip(c, log2p))
            terms.setdefault(self.key_of_counts(c), []).append(2.0 ** lm if lm > -1074 else 0.0)
        return [(self.size_of[key], math.fsum(t)) for key, t in terms.items()]


def pair_table(n):
    """Classes keyed by (k2, k3), the counts of the second and third symbol
    (or increment). This is the exact class of three families at s = 1:

    * ternary tau = (0,0), (1,0), (0,1), quantized: the cell of the average
      statistic (k2/n, k3/n) is (k2, k3);
    * sqrt2 family, point mode: 1 and sqrt2 are rationally independent, so
      the statistic k2 + k3*sqrt2 determines (k2, k3);
    * rotation chain: the pair statistic is (#increments of 1, #of 2).
    """
    return ClassTable(3, n, lambda c: (c[1], c[2]))


def sqrt2_quantized_table(n):
    return ClassTable(3, n, lambda c: (sqrt2_cell(c[1], c[2]),))


def rotation_increment_pmf(tau2, theta):
    """Increment law of the rotation chain: row a of the transition matrix
    is the same pmf shifted by a, so the rows of tau2 for a = 0 suffice."""
    return pmf([tau2[0], tau2[1], tau2[2]], theta)


# -- sampling --------------------------------------------------------------

def draw_sequence(rng: random.Random, p, n):
    return tuple(rng.choices(range(1, len(p) + 1), weights=p, k=n))


def draw_rotation_path(rng: random.Random, q, n, x0):
    out = []
    prev = x0
    for inc in rng.choices((0, 1, 2), weights=q, k=n):
        prev = (prev - 1 + inc) % 3 + 1
        out.append(prev)
    return tuple(out)


def draw_hull_point(rng: random.Random, tau):
    """A point of the convex hull of the tau rows, Dirichlet(1/2) weights,
    so that some targets sit near the hull boundary."""
    w = [rng.gammavariate(0.5, 1.0) for _ in tau]
    z = math.fsum(w)
    d = len(tau[0])
    return [math.fsum(wi / z * row[j] for wi, row in zip(w, tau)) for j in range(d)]


# -- enumeration at small n ------------------------------------------------

def enumerate_classes(m, n, key_of_sequence, prob_of_sequence):
    """Sizes and masses of every class from all m^n sequences, as a list of
    (size, mass) pairs."""
    size = {}
    terms = {}
    for xs in itertools.product(range(1, m + 1), repeat=n):
        key = key_of_sequence(xs)
        size[key] = size.get(key, 0) + 1
        terms.setdefault(key, []).append(prob_of_sequence(xs))
    return [(size[k], math.fsum(terms[k])) for k in size]


def iid_prob(p):
    def prob(xs):
        out = 1.0
        for x in xs:
            out *= p[x - 1]
        return out
    return prob


def rotation_prob(q, x0):
    def prob(xs):
        out = 1.0
        prev = x0
        for x in xs:
            out *= q[(x - prev) % 3]
            prev = x
        return out
    return prob


# -- the codebook cut ------------------------------------------------------

def _exact(value: float) -> int:
    """A nonnegative float as an exact integer multiple of 2^-1074."""
    num, den = value.as_integer_ratio()
    return num << (1074 - (den.bit_length() - 1))


def class_cut(pairs, epsilon):
    """The class-granular codebook size M(eps) from (size, mass) pairs.

    Classes are kept in ascending size; the cut falls only between distinct
    sizes, at the first one whose left-out mass is at most eps. Masses are
    summed exactly. Returns the set of M read at eps - TIE and eps + TIE,
    so a float tie may be resolved either way.
    """
    groups = []
    for size, grp in itertools.groupby(sorted(pairs), key=lambda sm: sm[0]):
        grp = list(grp)
        groups.append((size, len(grp), sum(_exact(mass) for _, mass in grp)))
    suffix = [0] * (len(groups) + 1)
    for i in range(len(groups) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + groups[i][2]
    out = set()
    for e in (epsilon - TIE, epsilon + TIE):
        limit = _exact(e)
        kept = 0
        for i, (size, count, _) in enumerate(groups):
            kept += size * count
            if suffix[i + 1] <= limit:
                out.add(kept)
                break
    return out


# -- checks ----------------------------------------------------------------

def sizes_match(program_sizes, table_sizes, m, n):
    """Class sizes sum to m^n and equal the reference multiset exactly."""
    return sum(program_sizes) == m ** n and sorted(program_sizes) == list(table_sizes)


def masses_match(program_pairs, reference_pairs):
    """Masses sum to 1 within TIE and match the reference class by class.

    Classes are matched by sorting (size, mass) on both sides; within a
    size the i-th smallest masses of two lists that agree to TIE also
    agree to TIE, so no class keys are needed.
    """
    if len(program_pairs) != len(reference_pairs):
        return False
    if abs(math.fsum(mass for _, mass in program_pairs) - 1.0) > TIE:
        return False
    for (s1, m1), (s2, m2) in zip(sorted(program_pairs), sorted(reference_pairs)):
        if s1 != s2 or abs(m1 - m2) > TIE:
            return False
    return True


def rate_report_ok(report, pairs, epsilon, n):
    """M is the reference cut and the rate is ceil(log2 M) / n."""
    return (report.M in class_cut(pairs, epsilon)
            and round(report.rate * n) == (report.M - 1).bit_length())


def kkt_residual(tau, rho, target, theta):
    """First-order optimality residual of theta for
    max <theta, target> - psi(theta) over the ball |theta| <= rho.

    Inside the ball the gradient target - E_theta[tau] must vanish; on the
    sphere only its outward radial part may remain.
    """
    d = len(target)
    p = pmf(tau, theta)
    g = [target[j] - math.fsum(pi * row[j] for pi, row in zip(p, tau)) for j in range(d)]
    norm = math.sqrt(math.fsum(t * t for t in theta))
    if norm > rho * (1 + 1e-9) + 1e-12:
        return math.inf
    if norm >= rho * (1 - 1e-9):
        radial = math.fsum(gj * tj for gj, tj in zip(g, theta)) / norm
        if radial > 0:
            g = [gj - radial * tj / norm for gj, tj in zip(g, theta)]
    return math.sqrt(math.fsum(gj * gj for gj in g))


def ml_gap_ok(gap, kappa, s):
    return 0.0 <= gap <= 2 * kappa * s


def sandwich_ok(dev, dev_smallest_n, kappa, s):
    """The deviation stays within 2*kappa*s + C*, C* fitted at the smallest n."""
    bound = 2 * kappa * s
    cstar = max(0.0, dev_smallest_n - bound)
    return 0.0 <= dev <= bound + cstar + 1e-9


def normality_ok(dev, n, dev_previous=None):
    """dev * sqrt(n) stays below NORMALITY_CONST, and dev falls as n grows."""
    if not (0.0 < dev and dev * math.sqrt(n) < NORMALITY_CONST):
        return False
    return dev_previous is None or dev < dev_previous


def rates_ok(out, ref, m, n, epsilons):
    """Sizes, masses and every M of one (mode, n) against the reference,
    plus the enumeration of all m^n sequences where n is small."""
    sizes, masses, reports = out
    ref_sizes, ref_pairs, enum = ref
    ok = (sizes_match(sizes, ref_sizes, m, n)
          and masses_match(list(zip(sizes, masses)), ref_pairs)
          and all(rate_report_ok(r, ref_pairs, e, n) for r, e in zip(reports, epsilons)))
    if enum is not None:
        ok = ok and sorted(sizes) == sorted(s for s, _ in enum) and all(
            r.M in class_cut(enum, e) for r, e in zip(reports, epsilons))
    return ok


def slopes_ok(point_slopes, quantized_slopes):
    """Point types cost more: d' = 2 > d = 1 gives the steeper slope."""
    return all(p > q for p, q in zip(point_slopes, quantized_slopes))


def mle_ok(tau, rho, targets, thetas):
    return all(kkt_residual(tau, rho, t, [float(v) for v in th]) <= KKT_TOL
               for t, th in zip(targets, thetas))


def round_trip_ok(out, xs, lo, hi):
    """decode(unpack(pack(encode(x)))) = x, the container survives intact,
    and the codeword length lies in the reference range."""
    sent, received, decoded = out
    return decoded == xs and received == sent and lo <= sent.codeword.length <= hi


def decoded_text_ok(text, xs):
    return tuple(int(t) for t in text.split()) == xs


def rate_stdout_ok(stdout, n, expected_m):
    """The `tscode rate` table row for n reports one of the reference Ms."""
    rows = [line.split() for line in stdout.splitlines() if line.split()[:1] == [str(n)]]
    return len(rows) == 1 and int(rows[0][-1]) in expected_m
