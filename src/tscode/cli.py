"""Command-line surface: validate, encode, decode, rate, fit, check.

Exit codes: 0 success, 1 unreadable input or unwritable output, 2 schema
error, 3 invariant or domain error, 4 resource budget exceeded, 5 corrupt or
mismatched container. All outputs are written atomically (a unique temp file
in the target directory, fsynced, then renamed); commands are deterministic
given their configuration and seed.
"""

from __future__ import annotations

import argparse
import decimal
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import container as containerfmt
from .codec import ClassOrdering
from .errors import BudgetError, ContainerError, SchemaError, SpecError
from .pointtypes import derive_lattice
from .quantized import Grid
from .rates import (
    SourceSpec,
    build_index,
    m_eps,
    ml_approx_check,
    normality_check,
    sandwich_sweep,
    third_order_fit,
)
from .report import render_fit_svg, render_report
from .specfile import ParsedSpec, parse_spec_file

EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4
EXIT_CONTAINER = 5


@dataclass(frozen=True)
class RunConfig:
    """The checked options of one command; those it does not take are None."""
    spec: ParsedSpec
    mode: str
    s: float | None
    anchor: tuple[float, ...] | None
    n_list: tuple[int, ...]
    epsilon: float | None
    seed: int | None
    budget: int | None
    out: Path | None


def _parse_anchor(text: str | None):
    if text is None:
        return None
    try:
        anchor = tuple(float(v) for v in text.split(","))
        if all(map(math.isfinite, anchor)):
            return anchor
    except ValueError:
        pass
    raise SchemaError(f"anchor must be comma-separated finite reals, got {text!r}")


def _mode_problem(mode: str, kind: str) -> str | None:
    """Why a spec file of ``kind`` cannot be indexed in ``mode``, or None."""
    if mode == "markov" and kind != "markov":
        return "mode markov requires a tau2/x0 spec file"
    if mode in ("quantized", "point") and kind == "markov":
        return f"mode {mode} cannot use a markov spec file"
    if mode == "point" and kind == "family":
        return "mode point requires basis/coeff rows in the spec file"
    return None


def _build_config(args) -> RunConfig:
    """Check the options the command takes, reporting every problem at once."""
    opts = vars(args)
    problems = []
    spec = None
    try:
        spec = parse_spec_file(args.spec)
    except (SchemaError, SpecError) as exc:
        problems.append(str(exc))
    mode = opts.get("mode")
    if spec is not None:
        if mode is None:
            mode = "markov" if spec.kind == "markov" else \
                ("point" if spec.kind == "point" else "quantized")
        problem = _mode_problem(mode, spec.kind)
        if problem:
            problems.append(problem)
    s = opts.get("s")
    if s is not None and (s <= 0 or not math.isfinite(s)):
        problems.append(f"grid scale s must be positive, got {s}")
    # point classes use no grid (check has no --mode: it reads --s on any spec)
    given = [f for f, v in (("--s", s), ("--anchor", opts.get("anchor"))) if v is not None]
    if mode == "point" and "mode" in opts and given:
        problems.append(f"mode point uses no grid, so it takes no {' or '.join(given)}")
    anchor = None
    try:
        anchor = _parse_anchor(opts.get("anchor"))
    except SchemaError as exc:
        problems.append(str(exc))
    if spec is not None and anchor is not None:
        d = (spec.markov or spec.family).d
        if len(anchor) != d:
            problems.append(f"anchor has length {len(anchor)}, expected d={d}")
    n_list: tuple[int, ...] = ()
    n, n_grid = opts.get("n"), opts.get("n_grid")
    if n is not None and n_grid:
        problems.append("give either --n or --n-grid, not both")
    elif n is not None:
        n_list = (n,)
    elif n_grid:
        try:
            n_list = tuple(int(v) for v in n_grid.split(","))
        except ValueError:
            problems.append(f"--n-grid must be comma-separated integers, got {n_grid!r}")
    if "n_grid" in opts and n is None and not n_grid:
        flags = "--n or --n-grid" if "n" in opts else "--n-grid"
        problems.append(f"a blocklength is required ({flags})")
    if n_list and (any(v < 1 for v in n_list) or list(n_list) != sorted(set(n_list))):
        problems.append(f"blocklengths must be positive and strictly increasing: {n_list}")
    if args.command == "fit" and 0 < len(n_list) < 3:
        problems.append("--n-grid needs at least 3 blocklengths for a slope fit")
    epsilon = opts.get("epsilon")
    if epsilon is not None and not (0.0 < epsilon < 1.0):
        problems.append(f"epsilon must be in (0,1), got {epsilon}")
    budget = opts.get("budget")
    if budget is not None and budget < 1:
        problems.append(f"--budget must be positive, got {budget}")
    seed = opts.get("seed")
    if seed is not None and seed < 0:
        problems.append(f"--seed must be non-negative, got {seed}")
    if problems:
        raise SchemaError("invalid configuration:\n  " + "\n  ".join(problems))
    return RunConfig(
        spec=spec, mode=mode, s=1.0 if s is None and "s" in opts else s,
        anchor=anchor, n_list=n_list,
        epsilon=epsilon, seed=seed,
        budget=budget,
        out=Path(opts["out"]) if opts.get("out") else None,
    )


def _atomic_write(path: Path, data) -> None:
    """Write through a unique temp file in the target directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    payload = data if isinstance(data, bytes) else data.encode()
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_sequence(path: Path, m: int) -> tuple[int, ...]:
    """The symbols of a sequence file, each an integer in 1..m."""
    try:
        tokens = path.read_text(encoding="utf-8").split()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read sequence file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"sequence file {path} is not UTF-8 text: {exc}") from None
    if not tokens:
        raise SchemaError(f"sequence file {path} is empty")
    try:
        seq = tuple(int(t) for t in tokens)
    except ValueError:
        raise SchemaError(f"sequence file {path} must contain integer symbols") from None
    for i, x in enumerate(seq):
        if not 1 <= x <= m:
            raise SchemaError(f"sequence file {path}: symbol {x} at position {i + 1} "
                              f"is outside 1..{m}")
    return seq


def _family(cfg: RunConfig):
    # straight from the spec, not through SourceSpec: the codec never reads
    # theta_star, so it must not be checked against the ball here
    return cfg.spec.markov or cfg.spec.family


def _build_index(cfg: RunConfig, n: int):
    return build_index(_family(cfg), cfg.mode, n, s=cfg.s, anchor=cfg.anchor,
                       stat_map=cfg.spec.stat_map, budget=cfg.budget)


def cmd_validate(args) -> int:
    spec = parse_spec_file(args.spec)
    diagnostics = [f"kind {spec.kind}"]
    if spec.kind == "markov":
        ms = spec.markov
        diagnostics.append(f"alphabet {ms.alphabet.size} d {ms.d} x0 {ms.x0}")
    else:
        fam = spec.family
        diagnostics.append(f"alphabet {fam.alphabet.size} d {fam.d}")
        if spec.stat_map is not None:
            d_prime = derive_lattice(spec.stat_map).shape[1]
            diagnostics.append(f"d_prime {d_prime}")
            if d_prime < fam.d:
                diagnostics.append(
                    f"warning: declared basis gives d_prime {d_prime} < d {fam.d}"
                )
            worst = max(spec.stat_map.hint_residuals())
            if worst > 1e-6:
                diagnostics.append(
                    f"warning: basis hints deviate from tau by up to {worst:.3g}"
                )
    # encode and decode never read theta_star; rate, fit and check refuse it
    try:
        (spec.markov or spec.family).check_theta(spec.theta_star)
    except SpecError as exc:
        diagnostics.append(f"warning: theta_star refused by rate, fit and check: {exc}")
    print("valid")
    for line in diagnostics:
        print(line)
    return 0


def cmd_encode(args) -> int:
    cfg = _build_config(args)
    seq = _read_sequence(Path(args.input), _family(cfg).alphabet.size)
    codeword = ClassOrdering(_build_index(cfg, len(seq))).encode(seq)
    ms = cfg.spec.markov
    point = cfg.mode == "point"  # point classes use no grid: s = 0, no anchor
    payload = containerfmt.pack(containerfmt.Container(
        spec_hash=cfg.spec.spec_hash,
        mode=cfg.mode,
        s=0.0 if point else cfg.s,
        anchor=() if point else (cfg.anchor or (0.0,) * _family(cfg).d),
        x0=ms.x0 if ms else None,
        n=len(seq),
        codeword=codeword,
    ))
    _atomic_write(Path(args.output), payload)
    print(f"encoded n={len(seq)} to {codeword.length} bits")
    return 0


def cmd_decode(args) -> int:
    cfg = _build_config(args)
    try:
        data = Path(args.input).read_bytes()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read container {args.input}: {exc}") from exc
    cont = containerfmt.unpack(data)
    if cont.spec_hash != cfg.spec.spec_hash:
        raise ContainerError(
            "container was encoded with a different family spec "
            f"(hash {cont.spec_hash.hex()[:16]}..., expected "
            f"{cfg.spec.spec_hash.hex()[:16]}...)"
        )
    if args.mode is None:
        # no --mode: the container's, if the spec's kind admits it
        problem = _mode_problem(cont.mode, cfg.spec.kind)
        if problem:
            raise ContainerError(f"container mode {cont.mode} does not suit spec kind "
                                 f"{cfg.spec.kind}: {problem}")
    elif cont.mode != cfg.mode:
        raise ContainerError(f"container mode {cont.mode} does not match --mode {cfg.mode}")
    if cont.mode == "markov" and cont.x0 != cfg.spec.markov.x0:
        raise ContainerError(f"container x0 {cont.x0} does not match spec x0")
    if cont.mode == "point" and (cont.s != 0 or cont.anchor):
        # encode writes no grid for point classes
        raise ContainerError(f"container grid s={cont.s!r} anchor={cont.anchor!r}: "
                             "a point container holds s = 0 and an empty anchor")
    if cont.n == 0:
        # encode refuses an empty sequence, so no container holds one
        raise ContainerError("container blocklength n=0; a sequence has at least one symbol")
    # the mode, checked above, and the grid come from the container (point
    # classes ignore the grid); the spec is valid, so a grid the index cannot
    # be built on marks the container as corrupt
    run = replace(cfg, mode=cont.mode, s=cont.s, anchor=cont.anchor)
    try:
        index = _build_index(run, cont.n)
    except SpecError as exc:
        raise ContainerError(f"container grid s={cont.s!r} anchor={cont.anchor!r}: {exc}") from None
    seq = ClassOrdering(index).decode(cont.codeword)
    _atomic_write(Path(args.output), " ".join(str(v) for v in seq) + "\n")
    print(f"decoded {cont.n} symbols")
    return 0


def _source_of(cfg: RunConfig) -> SourceSpec:
    return SourceSpec(_family(cfg), cfg.spec.theta_star)


def cmd_rate(args) -> int:
    cfg = _build_config(args)
    source = _source_of(cfg)  # a theta_star outside the ball fails before any index
    rows = [m_eps(source, _build_index(cfg, n), cfg.epsilon) for n in cfg.n_list]
    print(f"{'n':>6} {'epsilon':>8} {'gamma':>12} {'rate':>10}  M")
    for rep in rows:
        # M through Decimal, which has no 4,300-digit cap (kept on for input)
        M = decimal.Decimal(rep.M)
        print(f"{rep.n:>6} {rep.epsilon:>8.4f} {rep.gamma:>12.6f} {rep.rate:>10.6f}  {M}")
    if cfg.out:
        fields = [("mode", rows[0].mode), ("epsilon", repr(cfg.epsilon))]
        for rep in rows:
            fields.append(("result", f"n={rep.n} gamma={rep.gamma!r} M={decimal.Decimal(rep.M)} "
                                     f"rate={rep.rate!r}"))
        _atomic_write(cfg.out / "rate_report.txt", render_report("rate", fields))
        print(f"wrote {cfg.out / 'rate_report.txt'}")
    return 0


def cmd_fit(args) -> int:
    cfg = _build_config(args)
    rep = third_order_fit(_source_of(cfg), cfg.n_list, cfg.epsilon,
                          mode=cfg.mode, s=cfg.s, anchor=cfg.anchor,
                          stat_map=cfg.spec.stat_map, budget=cfg.budget)
    print(f"mode {rep.mode}  slope {rep.slope:.4f}  intercept {rep.intercept:.4f}")
    for (n, rate, y), resid in zip(rep.points, rep.residuals):
        print(f"  n={n:>6} rate={rate:.6f} excess={y:+.4f} residual={resid:+.4f}")
    if cfg.out:
        fields = [("mode", rep.mode), ("epsilon", repr(cfg.epsilon)),
                  ("slope", repr(rep.slope)), ("intercept", repr(rep.intercept))]
        for (n, rate, y), resid in zip(rep.points, rep.residuals):
            fields.append(("point", f"n={n} rate={rate!r} excess={y!r} residual={resid!r}"))
        _atomic_write(cfg.out / "fit_report.txt", render_report("fit", fields))
        svg = render_fit_svg(rep.points, rep.slope, rep.intercept,
                             f"excess rate vs log2 n ({rep.mode}, eps={cfg.epsilon:g})")
        _atomic_write(cfg.out / "fit.svg", svg)
        print(f"wrote {cfg.out / 'fit_report.txt'} and {cfg.out / 'fit.svg'}")
    return 0


def cmd_check(args) -> int:
    cfg = _build_config(args)
    if cfg.mode == "markov":
        raise SpecError("check currently covers memoryless families only")
    fam = cfg.spec.family
    src = _source_of(cfg)  # a theta_star outside the ball fails before any index
    fields = []
    print("likelihood-approximation gap (statistic vs cuboid center):")
    for n in cfg.n_list:
        grid = Grid.create(n=n, s=cfg.s, d=fam.d, anchor=cfg.anchor)
        gap = ml_approx_check(fam, grid, n, budget=cfg.budget)
        bound = 2 * fam.kappa * cfg.s
        print(f"  n={n:>5}: max gap {gap:.6f} <= bound {bound:.6f}")
        fields.append(("ml_gap", f"n={n} gap={gap!r} bound={bound!r}"))
    print("class-size sandwich deviation (constant fitted at the smallest n):")
    violated = False
    for n, dev, cstar, ok in sandwich_sweep(fam, cfg.n_list, cfg.s, anchor=cfg.anchor,
                                            budget=cfg.budget):
        if n == cfg.n_list[0]:
            fields.append(("sandwich_fit", f"n={n} dev={dev!r} cstar={cstar!r}"))
            print(f"  n={n:>5}: deviation {dev:.6f} (fit C*={cstar:.6f})")
            continue
        violated = violated or not ok
        print(f"  n={n:>5}: deviation {dev:.6f} bound {2 * fam.kappa * cfg.s + cstar:.6f} "
              f"{'ok' if ok else 'VIOLATED'}")
        fields.append(("sandwich", f"n={n} dev={dev!r} ok={ok}"))
    if any(src.theta_star):
        print("normality of the plug-in self-information (1e5 samples):")
        for n in cfg.n_list:
            dev = normality_check(src, n, 100_000, seed=cfg.seed)
            print(f"  n={n:>5}: sup deviation {dev:.6f} (x sqrt(n) = {dev * math.sqrt(n):.4f})")
            fields.append(("normality", f"n={n} dev={dev!r}"))
    else:
        print("normality check skipped: theta_star is zero (varentropy 0)")
        fields.append(("normality", "skipped theta_star=0"))
    if cfg.out:
        _atomic_write(cfg.out / "check_report.txt", render_report("check", fields))
        print(f"wrote {cfg.out / 'check_report.txt'}")
    if violated:
        print("invariant error: class-size sandwich bound VIOLATED", file=sys.stderr)
        return EXIT_INVARIANT
    return 0


# every argument of the CLI; _COMMANDS names the ones each command reads
_ARGUMENTS = {
    "--spec": dict(required=True, help="model spec file"),
    "--mode": dict(choices=["quantized", "point", "markov"],
                   help="type-class mode (default: from spec kind)"),
    # no parser default: point mode must tell a given --s from none
    "--s": dict(type=float, help="cuboid side scale (default 1.0)"),
    "--anchor": dict(help="grid anchor, comma-separated"),
    "--n": dict(type=int, help="blocklength"),
    "--n-grid": dict(help="comma-separated blocklengths"),
    "--epsilon": dict(type=float, default=0.1, help="overflow probability"),
    "--seed": dict(type=int, default=0, help="RNG seed"),
    "--budget": dict(type=int, help="most compositions or paths an index may enumerate"),
    "--out": dict(help="output directory for reports"),
    "input": dict(help="input file"),
    "output": dict(help="output file"),
}

_COMMANDS = {
    "validate": (cmd_validate, "check a spec file", "--spec"),
    "encode": (cmd_encode, "encode a symbol file",
               "--spec --mode --s --anchor --budget input output"),
    # no grid options: the grid comes from the container
    "decode": (cmd_decode, "decode a container",
               "--spec --mode --budget input output"),
    "rate": (cmd_rate, "evaluate the finite-blocklength rate",
             "--spec --mode --s --anchor --n --n-grid --epsilon --budget --out"),
    "fit": (cmd_fit, "third-order slope experiment",
            "--spec --mode --s --anchor --n-grid --epsilon --budget --out"),
    # no --mode: the quantized checks run on any memoryless spec, and a Markov one is refused
    "check": (cmd_check, "run the bound checks",
              "--spec --s --anchor --n --n-grid --seed --budget --out"),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tscode",
        description="type-size coding over quantized sufficient-statistic types",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, arguments) in _COMMANDS.items():
        # no prefix matching: a dropped --n or --s must not become --n-grid or --spec
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for arg in arguments.split():
            p.add_argument(arg, **_ARGUMENTS[arg])
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ContainerError as exc:
        print(f"container error: {exc}", file=sys.stderr)
        return EXIT_CONTAINER
    except (SpecError, ValueError, RuntimeError) as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
