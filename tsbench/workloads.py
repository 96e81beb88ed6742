"""The three workloads: codec-stream, cli-cold and analysis.

Each builds its inputs from the seed with the benchmark's own generator,
computes its reference answers with oracle.py, and only then sets up and
times tscode. Input generation and reference answers count in neither
set-up nor the timed phase. See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import time

import oracle
from harness import Op, Runner

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

TERNARY_SPEC = """\
# ternary family, tau(x) = e_{x-1}, d = 2
alphabet_size 3
d 2
tau 0 0
tau 1 0
tau 0 1
rho_max 2
theta_star 0.6 -0.4
"""

SQRT2_SPEC = """\
# tau = (0, 1, sqrt2): d = 1, lattice dimension d' = 2
alphabet_size 3
d 1
tau 0
tau 1
tau 1.4142135623730951
rho_max 3
basis 1 one=1 sqrt2=1.4142135623730951
coeff 1 1 0 0
coeff 2 1 1 0
coeff 3 1 0 1
theta_star 1
"""

# Rotation chain: tau2(a, b) depends only on the increment b - a mod 3
# ((0,0), (1,0), (0,1) for increments 0, 1, 2), so every row holds the same
# multiset of tau2 vectors and the family has a single normalizer.
ROTATION_SPEC = """\
alphabet_size 3
d 2
tau2 0 0
tau2 1 0
tau2 0 1
tau2 0 1
tau2 0 0
tau2 1 0
tau2 1 0
tau2 0 1
tau2 0 0
rho_max 2
x0 1
theta_star 0.8 -0.6
"""

TERNARY_THETA = (0.6, -0.4)
SQRT2_THETA = (1.0,)
ROTATION_THETA = (0.8, -0.6)
ROTATION_TAU2 = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))  # by increment
TERNARY_TAU = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
SQRT2_TAU = ((0.0,), (1.0,), (math.sqrt(2.0),))
EPSILONS = (0.1, 0.2)


def _import_tscode():
    """Import every tscode module the workload uses; returns the seconds taken."""
    start = time.perf_counter()
    import tscode  # noqa: F401
    from tscode import codec, container, family, markov, pointtypes, quantized, rates, specfile  # noqa: F401
    return time.perf_counter() - start


def _peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- codec-stream -----------------------------------------------------------

class Stream:
    """One family/mode: its ordering, container header fields, and the
    sequences of a round with their reference codeword-length ranges."""

    def __init__(self, name, count, draw, counts_of, table):
        self.name = name
        self.seqs = [draw() for _ in range(count)]
        self.bounds = [table.length_bounds(table.class_size(counts_of(xs)))
                       for xs in self.seqs]
        self.ordering = None
        self.header = None


def codec_stream(seed, seconds, trace):
    import_s = _import_tscode()
    from tscode import codec, container, markov, pointtypes, quantized, specfile
    from tracer import install_layer_wrappers

    rng = random.Random(seed)
    tern_p = oracle.pmf(TERNARY_TAU, TERNARY_THETA)
    sqrt2_p = oracle.pmf(SQRT2_TAU, SQRT2_THETA)
    rot_q = oracle.rotation_increment_pmf(ROTATION_TAU2, ROTATION_THETA)
    # Uneven counts keep the median operation inside the n = 512 streams.
    streams = [
        Stream("ternary-quantized", 64, lambda: oracle.draw_sequence(rng, tern_p, 512),
               lambda xs: oracle.symbol_counts(xs, 3), oracle.pair_table(512)),
        Stream("sqrt2-point", 32, lambda: oracle.draw_sequence(rng, sqrt2_p, 256),
               lambda xs: oracle.symbol_counts(xs, 3), oracle.pair_table(256)),
        Stream("sqrt2-quantized", 48, lambda: oracle.draw_sequence(rng, sqrt2_p, 512),
               lambda xs: oracle.symbol_counts(xs, 3), oracle.sqrt2_quantized_table(512)),
        Stream("rotation-markov", 16, lambda: oracle.draw_rotation_path(rng, rot_q, 10, 1),
               lambda xs: oracle.rotation_counts(xs, 1), oracle.pair_table(10)),
    ]

    runner = Runner(trace, install_layer_wrappers)

    def round_trip(stream, xs):
        cw = stream.ordering.encode(xs)
        sent = container.Container(codeword=cw, n=len(xs), **stream.header)
        received = container.unpack(container.pack(sent))
        return sent, received, stream.ordering.decode(received.codeword)

    def build():
        for stream in streams:
            stream.ordering = None  # release the previous repetition's index
        tern = specfile.parse_spec_text(TERNARY_SPEC)
        sqrt2 = specfile.parse_spec_text(SQRT2_SPEC)
        rot = specfile.parse_spec_text(ROTATION_SPEC)
        lmap = pointtypes.derive_lattice(sqrt2.stat_map)
        indexes = [
            quantized.build_type_index(tern.family, 512, quantized.Grid.create(n=512, s=1.0, d=2)),
            pointtypes.point_type_index(sqrt2.family, lmap, 256),
            quantized.build_type_index(sqrt2.family, 512, quantized.Grid.create(n=512, s=1.0, d=1)),
            markov.markov_type_index(rot.markov, 10, quantized.Grid.create(n=10, s=1.0, d=2)),
        ]
        headers = [
            dict(spec_hash=tern.spec_hash, mode="quantized", s=1.0, anchor=(0.0, 0.0), x0=None),
            dict(spec_hash=sqrt2.spec_hash, mode="point", s=0.0, anchor=(), x0=None),
            dict(spec_hash=sqrt2.spec_hash, mode="quantized", s=1.0, anchor=(0.0,), x0=None),
            dict(spec_hash=rot.spec_hash, mode="markov", s=1.0, anchor=(0.0, 0.0), x0=1),
        ]
        for stream, index, header in zip(streams, indexes, headers):
            stream.ordering = codec.ClassOrdering(index)
            stream.header = header
            # one warm-up operation fills the lazy counts-to-class table
            with runner.span("codec.warmup", opaque=True):
                round_trip(stream, stream.seqs[0])

    _, setup_s = runner.setup(build)

    ops = []
    for stream in streams:
        for xs, (lo, hi) in zip(stream.seqs, stream.bounds):
            def call(ctx, stream=stream, xs=xs):
                return round_trip(stream, xs)

            def check(out, ctx, xs=xs, lo=lo, hi=hi):
                return oracle.round_trip_ok(out, xs, lo, hi)
            ops.append(Op(f"{stream.name}/{len(ops)}", call, check))

    runner.timed(ops, seconds)
    bits = sum(out[0].codeword.length for out in runner.outputs(op.name for op in ops))
    symbols = sum(len(xs) for stream in streams for xs in stream.seqs)
    metrics = {"setup_s": (import_s + setup_s, "s"), **runner.latency_metrics(),
               "peak_rss_mb": (_peak_rss_mb(), "MB"),
               "code_bits_per_symbol": (bits / symbols, "bits/symbol")}
    return runner, metrics


# -- cli-cold ---------------------------------------------------------------

def cli_cold(seed, seconds, trace):
    rng = random.Random(seed)
    work = os.path.join(OUT, f"cli-work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _cli_cold(rng, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cli_cold(rng, work, seconds, trace):
    def path(name):
        return os.path.join(work, name)

    for name, text in (("ternary.spec", TERNARY_SPEC), ("sqrt2.spec", SQRT2_SPEC),
                       ("rotation.spec", ROTATION_SPEC)):
        with open(path(name), "w") as fh:
            fh.write(text)
    tern_p = oracle.pmf(TERNARY_TAU, TERNARY_THETA)
    inputs = {
        "ternary": ("ternary.spec", "quantized",
                    oracle.draw_sequence(rng, tern_p, 512)),
        "sqrt2": ("sqrt2.spec", "point",
                  oracle.draw_sequence(rng, oracle.pmf(SQRT2_TAU, SQRT2_THETA), 128)),
        "rotation": ("rotation.spec", "markov", oracle.draw_rotation_path(
            rng, oracle.rotation_increment_pmf(ROTATION_TAU2, ROTATION_THETA), 10, 1)),
    }
    for name, (_, _, xs) in inputs.items():
        with open(path(f"{name}.txt"), "w") as fh:
            fh.write(" ".join(map(str, xs)) + "\n")
    rate_eps = 0.1
    expected_m = oracle.class_cut(oracle.pair_table(512).masses(tern_p), rate_eps)

    runner = Runner(trace)
    traced_cli = os.path.join(HERE, "traced_cli.py")

    def cli(kind, args):
        """One CLI call in a fresh interpreter; returns (exit code, stdout)."""
        if runner.active is None:
            proc = subprocess.run([sys.executable, "-m", "tscode.cli", *args],
                                  capture_output=True, text=True, timeout=170)
            return proc.returncode, proc.stdout
        spans_path = path("spans.json")
        tracer = runner.active
        with tracer.span(f"cli.{kind}_call") as rec:
            proc = subprocess.run([sys.executable, traced_cli, spans_path, *args],
                                  capture_output=True, text=True, timeout=170)
        with open(spans_path) as fh:
            tracer.merge(json.load(fh), rec[0])
        return proc.returncode, proc.stdout

    def validate_all():
        for spec in ("ternary.spec", "sqrt2.spec", "rotation.spec"):
            code, out = cli("validate", ["validate", "--spec", path(spec)])
            if code != 0:
                raise RuntimeError(f"tscode validate {spec} exited {code}")

    # validate calls are never traced: set-up is the same on both kinds of run
    _, setup_s = runner.setup(validate_all, traced=False)

    ops = []
    for name, (spec, mode, xs) in inputs.items():
        common = ["--spec", path(spec), "--mode", mode]

        def encode(ctx, name=name, common=common):
            return cli("encode", ["encode", *common, path(f"{name}.txt"), path(f"{name}.tsz")])

        def decode(ctx, name=name, common=common):
            return cli("decode", ["decode", *common, path(f"{name}.tsz"), path(f"{name}.out")])

        def check_decode(out, ctx, name=name, xs=xs):
            with open(path(f"{name}.out")) as fh:
                text = fh.read()
            # the next round must write its own files
            os.remove(path(f"{name}.out"))
            os.remove(path(f"{name}.tsz"))
            return out[0] == 0 and oracle.decoded_text_ok(text, xs)
        ops.append(Op(f"encode/{name}", encode, lambda out, ctx: out[0] == 0))
        ops.append(Op(f"decode/{name}", decode, check_decode))

    def rate(ctx):
        return cli("rate", ["rate", "--spec", path("ternary.spec"), "--mode", "quantized",
                            "--n", "512", "--epsilon", str(rate_eps)])

    def check_rate(out, ctx):
        return out[0] == 0 and oracle.rate_stdout_ok(out[1], 512, expected_m)
    ops.append(Op("rate/ternary", rate, check_rate))

    runner.timed(ops, seconds)
    bits = sum(int(m.group(1)) for _, stdout in runner.outputs(f"encode/{name}" for name in inputs)
               if (m := re.search(r"to (\d+) bits", stdout)))
    symbols = sum(len(xs) for _, _, xs in inputs.values())
    metrics = {"setup_s": (setup_s, "s"), **runner.latency_metrics(),
               "peak_rss_mb": (_peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
               "code_bits_per_symbol": (bits / symbols, "bits/symbol")}
    return runner, metrics


# -- analysis ---------------------------------------------------------------

SQRT2_NS = (8, 16, 32, 64, 128, 256, 512)
MARKOV_NS = (6, 8, 10)
ML_GAP_CASES = (("binary", (8, 16, 32, 64)), ("ternary", (8, 16, 32)))
SANDWICH_CASES = (("binary", (8, 16, 32)), ("ternary", (8, 16)))
NORMALITY_NS = (64, 256, 1024)
NORMALITY_SAMPLES = 100_000
MLE_TARGETS = 100
ENUMERATION_MAX_N = 10


def analysis(seed, seconds, trace):
    import_s = _import_tscode()
    from tscode import family, markov, pointtypes, quantized, rates, specfile
    from tracer import install_layer_wrappers

    rng = random.Random(seed)
    sqrt2_p = oracle.pmf(SQRT2_TAU, SQRT2_THETA)
    # Markov source: a seeded parameter inside the ball of radius 2
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(0.3, 1.5)
    rot_theta = (radius * math.cos(angle), radius * math.sin(angle))
    rot_q = oracle.rotation_increment_pmf(ROTATION_TAU2, rot_theta)
    normality_seeds = [rng.getrandbits(63) for _ in NORMALITY_NS]
    binary_tau = ((0.0,), (1.0,))
    mle_families = {"binary": (binary_tau, 3.0), "ternary": (TERNARY_TAU, 2.0),
                    "sqrt2": (SQRT2_TAU, 3.0)}
    mle_targets = {name: [oracle.draw_hull_point(rng, tau) for _ in range(MLE_TARGETS)]
                   for name, (tau, _) in mle_families.items()}

    # reference sizes and masses
    ref = {}
    for n in SQRT2_NS:
        for mode, table in (("quantized", oracle.sqrt2_quantized_table(n)),
                            ("point", oracle.pair_table(n))):
            pairs = table.masses(sqrt2_p)
            if n <= ENUMERATION_MAX_N:
                key = ((lambda xs: (oracle.sqrt2_cell(xs.count(2), xs.count(3)),))
                       if mode == "quantized" else (lambda xs: (xs.count(2), xs.count(3))))
                enum = oracle.enumerate_classes(3, n, key, oracle.iid_prob(sqrt2_p))
            else:
                enum = None
            ref[mode, n] = (table.sizes, pairs, enum)
    for n in MARKOV_NS:
        table = oracle.pair_table(n)

        def key(xs):
            c = oracle.rotation_counts(xs, 1)
            return (c[1], c[2])
        enum = oracle.enumerate_classes(3, n, key, oracle.rotation_prob(rot_q, 1))
        ref["markov", n] = (table.sizes, table.masses(rot_q), enum)

    runner = Runner(trace, install_layer_wrappers)

    def build():
        sqrt2 = specfile.parse_spec_text(SQRT2_SPEC)
        rot = specfile.parse_spec_text(ROTATION_SPEC)
        lmap = pointtypes.derive_lattice(sqrt2.stat_map)
        fam = sqrt2.family
        idx = {}
        for n in SQRT2_NS:
            idx["quantized", n] = quantized.build_type_index(
                fam, n, quantized.Grid.create(n=n, s=1.0, d=1))
            idx["point", n] = pointtypes.point_type_index(fam, lmap, n)
        for n in MARKOV_NS:
            idx["markov", n] = markov.markov_type_index(
                rot.markov, n, quantized.Grid.create(n=n, s=1.0, d=2))
        wide = {"binary": family.FamilySpec.create(binary_tau, rho_max=14.0),
                "ternary": family.FamilySpec.create(TERNARY_TAU, rho_max=14.0)}
        for name, ns in SANDWICH_CASES:
            wfam = wide[name]
            for n in ns:
                grid = quantized.Grid.create(n=n, s=1.0, d=wfam.d)
                idx["sandwich", name, n] = (wfam, grid, quantized.build_type_index(wfam, n, grid))
        return idx

    idx, setup_s = runner.setup(build)
    src = rates.SourceSpec(specfile.parse_spec_text(SQRT2_SPEC).family, SQRT2_THETA)
    fams = {name: family.FamilySpec.create(tau, rho_max=rho)
            for name, (tau, rho) in mle_families.items() if name != "sqrt2"}
    fams["sqrt2"] = src.family
    ops = []

    def add(name, call, check):
        ops.append(Op(name, call, check))

    # rates: class masses and the codebook cut at every (mode, n)
    for mode in ("quantized", "point"):
        for n in SQRT2_NS:
            def rate_call(ctx, index=idx[mode, n]):
                masses = rates.class_masses(src, index)
                reports = [rates.m_eps(src, index, e) for e in EPSILONS]
                return [c.size for c in index.classes], masses, reports

            def rate_check(out, ctx, n=n, ref=ref[mode, n]):
                return oracle.rates_ok(out, ref, 3, n, EPSILONS)
            add(f"rate/{mode}/{n}", rate_call, rate_check)
    for n in MARKOV_NS:
        def markov_call(ctx, index=idx["markov", n]):
            masses = markov.markov_class_masses(index, rot_theta)
            reports = [markov.markov_m_eps(index, rot_theta, e) for e in EPSILONS]
            return [c.size for c in index.classes], masses, reports

        def markov_check(out, ctx, n=n, ref=ref["markov", n]):
            return oracle.rates_ok(out, ref, 3, n, EPSILONS)
        add(f"rate/markov/{n}", markov_call, markov_check)

    # third-order slope fits on the points just computed
    h = src.entropy
    sigma = math.sqrt(src.varentropy)
    for mode in ("quantized", "point"):
        def fit_call(ctx, mode=mode):
            slopes = []
            for j, e in enumerate(EPSILONS):
                qi = rates.gaussian_Qinv(e)
                points = []
                for n in SQRT2_NS[1:]:
                    rate = ctx[f"rate/{mode}/{n}"][2][j].rate
                    points.append((n, rate, n * rate - n * h - sigma * math.sqrt(n) * qi))
                slopes.append(rates.fit_excess(points)[0])
            return slopes
        add(f"fit/{mode}", fit_call,
            (lambda out, ctx: all(map(math.isfinite, out))) if mode == "quantized" else
            (lambda out, ctx: oracle.slopes_ok(out, ctx["fit/quantized"])))

    # likelihood-approximation gap at s = 2
    for name, ns in ML_GAP_CASES:
        for n in ns:
            spec = fams[name]

            def gap_call(ctx, spec=spec, n=n):
                return rates.ml_approx_check(spec, quantized.Grid.create(n=n, s=2.0, d=spec.d), n)
            add(f"ml_gap/{name}/{n}", gap_call,
                lambda out, ctx, spec=spec: oracle.ml_gap_ok(out, spec.kappa, 2.0))

    # class-size sandwich on the wide-ball families, C* fitted at the smallest n
    for name, ns in SANDWICH_CASES:
        for n in ns:
            wfam, grid, index = idx["sandwich", name, n]

            def sandwich_call(ctx, wfam=wfam, grid=grid, index=index):
                return rates.max_sandwich_deviation(wfam, grid, index)

            def sandwich_check(out, ctx, name=name, wfam=wfam, n0=ns[0]):
                first = ctx[f"sandwich/{name}/{n0}"]
                return oracle.sandwich_ok(out, first, wfam.kappa, 1.0)
            add(f"sandwich/{name}/{n}", sandwich_call, sandwich_check)

    # normality of the plug-in self-information
    bern = rates.SourceSpec(fams["binary"], (math.log2(0.7 / 0.3),))
    for i, (n, nseed) in enumerate(zip(NORMALITY_NS, normality_seeds)):
        def normality_call(ctx, n=n, nseed=nseed):
            return rates.normality_check(bern, n, NORMALITY_SAMPLES, nseed)

        def normality_check(out, ctx, n=n, i=i):
            prev = ctx[f"normality/{NORMALITY_NS[i - 1]}"] if i else None
            return oracle.normality_ok(out, n, prev)
        add(f"normality/{n}", normality_call, normality_check)

    # maximum likelihood on seeded targets, one solve per operation; the
    # solves are spread evenly between the other operations, so that their
    # latencies sample the whole round rather than one short stretch of it
    solves = []
    for name, (tau, rho) in mle_families.items():
        for i, target in enumerate(mle_targets[name]):
            def mle_call(ctx, spec=fams[name], target=target):
                with runner.span("family.mle"):
                    return family.mle(spec, target)

            def mle_check(out, ctx, tau=tau, rho=rho, target=target):
                return oracle.mle_ok(tau, rho, [target], [out])
            solves.append(Op(f"mle/{name}/{i}", mle_call, mle_check))
    others, ops = ops, []
    for j, op in enumerate(others):
        ops.append(op)
        ops.extend(solves[j * len(solves) // len(others):(j + 1) * len(solves) // len(others)])

    runner.timed(ops, seconds)
    rates_bits = [r.rate for out in runner.outputs(f"rate/{mode}/{n}" for mode in
                                                   ("quantized", "point") for n in SQRT2_NS)
                  for r in out[2]] or [0.0]
    metrics = {"setup_s": (import_s + setup_s, "s"), **runner.latency_metrics(),
               "peak_rss_mb": (_peak_rss_mb(), "MB"),
               "code_bits_per_symbol": (sum(rates_bits) / len(rates_bits), "bits/symbol")}
    return runner, metrics


WORKLOADS = {"codec-stream": codec_stream, "cli-cold": cli_cold, "analysis": analysis}
