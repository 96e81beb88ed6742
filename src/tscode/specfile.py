"""Line-oriented model specification files.

Family file fields: ``alphabet_size``, ``d``, ``tau`` (one row per symbol,
d decimal reals each), ``rho_max``, and optionally ``theta_star`` (the true
model used by the rate/fit/check commands; defaults to the zero vector).
Point-type files extend this with ``basis`` rows (named constants with
decimal display hints) and exact rational ``coeff`` rows. Markov files
replace ``tau`` with ``tau2`` (|X|^2 rows, row-major over symbol pairs) and
add ``x0``. Numbers are parsed exactly as decimals or p/q rationals;
NaN, infinities, decimal exponents beyond +-1000 and numbers outside the
double range are rejected. ``alphabet_size``, ``d`` and the statistic rows
are checked before anything is sized by them. Rows of the other kind of file
(``x0`` in a memoryless file, ``tau``/``basis``/``coeff`` in a Markov file)
and repeated ``basis``/``coeff`` rows are rejected, not dropped.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

from .errors import SchemaError
from .family import FamilySpec
from .markov import MarkovFamilySpec
from .pointtypes import ExactStatMap


# A decimal exponent beyond this is no finite nonzero double, and forming its
# exact value would take time and memory that grow with the exponent.
_MAX_EXPONENT = 1000
_DOUBLE_MAX = Fraction(sys.float_info.max)


def _parse_decimal(token: str) -> Fraction:
    try:
        dec = Decimal(token)
    except InvalidOperation:
        raise SchemaError(f"not a decimal number: {token!r}") from None
    if dec.is_nan() or dec.is_infinite():
        raise SchemaError(f"non-finite numbers are rejected: {token!r}")
    if dec and abs(dec.adjusted()) > _MAX_EXPONENT:
        raise SchemaError(f"decimal exponent out of range: {token!r}")
    try:
        return Fraction(dec)
    except ValueError as exc:  # more digits than int() may convert
        raise SchemaError(f"number too long: {token[:20]!r}...: {exc}") from None


def parse_exact_real(token: str) -> Fraction:
    """Exact decimal or p/q rational inside the double range, so it rounds to
    a double; rejects NaN/Inf and malformed tokens.

    Further slashes nest to the right: ``a/b/c`` is a / (b / c).
    """
    *nums, value = (_parse_decimal(part) for part in token.strip().split("/"))
    for num in reversed(nums):
        if not value:
            raise SchemaError(f"zero denominator in rational {token.strip()!r}")
        value = num / value
    if abs(value) > _DOUBLE_MAX:
        raise SchemaError(f"number outside the double range: {token!r}")
    return value


def parse_real(token: str) -> float:
    return float(parse_exact_real(token))


@dataclass(frozen=True)
class ParsedSpec:
    kind: str  # "family" | "point" | "markov"
    family: FamilySpec | None
    stat_map: ExactStatMap | None
    markov: MarkovFamilySpec | None
    theta_star: tuple[float, ...]

    @property
    def spec_hash(self) -> bytes:
        return hashlib.sha256(canonical_text(self).encode()).digest()


def _tokenize(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def parse_spec_text(text: str) -> ParsedSpec:
    rows = _tokenize(text)
    fields: dict[str, list[list[str]]] = {}
    for row in rows:
        fields.setdefault(row[0], []).append(row[1:])

    def single_int(name: str) -> int:
        vals = fields.get(name)
        if not vals or len(vals) != 1 or len(vals[0]) != 1:
            raise SchemaError(f"expected exactly one `{name} <integer>` line")
        try:
            return int(vals[0][0])
        except ValueError:
            raise SchemaError(f"field {name} must be an integer, got {vals[0][0]!r}") from None

    def single_number(name: str) -> float:
        vals = fields.get(name)
        if not vals or len(vals) != 1 or len(vals[0]) != 1:
            raise SchemaError(f"expected exactly one `{name} <number>` line")
        return parse_real(vals[0][0])

    known = {"alphabet_size", "d", "tau", "tau2", "rho_max", "theta_star",
             "basis", "coeff", "x0"}
    unknown = set(fields) - known
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")

    # everything sized by d or m is checked against the rows first
    m = single_int("alphabet_size")
    d = single_int("d")
    if m < 2:
        raise SchemaError(f"alphabet_size must be at least 2, got {m}")
    if d < 1:
        raise SchemaError(f"d must be at least 1, got {d}")
    is_markov = "tau2" in fields
    foreign = fields.keys() & ({"tau", "basis", "coeff"} if is_markov else {"x0"})
    if foreign:
        raise SchemaError(f"a {'tau2' if is_markov else 'tau'} spec file may not contain "
                          f"{', '.join(sorted(foreign))} rows")
    name, want = ("tau2", m * m) if is_markov else ("tau", m)
    table = fields.get(name)
    if not table:
        raise SchemaError(f"missing {name} rows")
    if len(table) != want:
        raise SchemaError(f"{name} must have {want} rows, found {len(table)}")
    for row in table:
        if len(row) != d:
            raise SchemaError(f"{name} rows must have {d} entries, found {len(row)}")
    rho = single_number("rho_max")
    theta = (0.0,) * d
    if "theta_star" in fields:
        vals = fields["theta_star"]
        if len(vals) != 1 or len(vals[0]) != d:
            raise SchemaError(f"theta_star must be one row of {d} numbers")
        theta = tuple(parse_real(v) for v in vals[0])
    rows = tuple(tuple(parse_real(v) for v in row) for row in table)

    if is_markov:
        markov = MarkovFamilySpec.create(rows, rho, single_int("x0"))
        return ParsedSpec(kind="markov", family=None, stat_map=None,
                          markov=markov, theta_star=theta)

    family = FamilySpec.create(rows, rho)

    stat_map = None
    if "basis" in fields or "coeff" in fields:
        stat_map = _parse_stat_map(family, fields)
    kind = "point" if stat_map is not None else "family"
    return ParsedSpec(kind=kind, family=family, stat_map=stat_map,
                      markov=None, theta_star=theta)


def _parse_stat_map(family: FamilySpec, fields) -> ExactStatMap:
    m, d = family.alphabet.size, family.d
    names: list[tuple[str, ...]] = [()] * d
    hints: list[tuple[float, ...]] = [()] * d
    for row in fields.get("basis", []):
        if len(row) < 2:
            raise SchemaError("basis rows need a coordinate and at least one name=hint")
        try:
            coord = int(row[0])
        except ValueError:
            raise SchemaError(f"basis coordinate must be an integer, got {row[0]!r}") from None
        if not (1 <= coord <= d):
            raise SchemaError(f"basis coordinate {coord} outside 1..{d}")
        if names[coord - 1]:
            raise SchemaError(f"repeated basis row for coordinate {coord}")
        pair_names, pair_hints = [], []
        for item in row[1:]:
            name, sep, hint = item.partition("=")
            if not sep or not name:
                raise SchemaError(f"basis entries are name=hint, got {item!r}")
            pair_names.append(name)
            pair_hints.append(parse_real(hint))
        names[coord - 1] = tuple(pair_names)
        hints[coord - 1] = tuple(pair_hints)
    for j in range(d):
        if not names[j]:
            raise SchemaError(f"missing basis row for coordinate {j + 1}")
    coeffs: list[list[tuple[Fraction, ...] | None]] = [[None] * d for _ in range(m)]
    for row in fields.get("coeff", []):
        if len(row) < 2:
            raise SchemaError("coeff rows need symbol, coordinate, and values")
        try:
            sym, coord = int(row[0]), int(row[1])
        except ValueError:
            raise SchemaError(f"coeff symbol/coordinate must be integers: {row[:2]}") from None
        if not (1 <= sym <= m) or not (1 <= coord <= d):
            raise SchemaError(f"coeff indices ({sym},{coord}) out of range")
        if coeffs[sym - 1][coord - 1] is not None:
            raise SchemaError(f"repeated coeff row for symbol {sym} coordinate {coord}")
        vals = tuple(parse_exact_real(v) for v in row[2:])
        if len(vals) != len(names[coord - 1]):
            raise SchemaError(
                f"coeff row for symbol {sym} coordinate {coord} must have "
                f"{len(names[coord - 1])} values"
            )
        coeffs[sym - 1][coord - 1] = vals
    for j in range(d):
        if coeffs[0][j] is None:
            coeffs[0][j] = (Fraction(0),) * len(names[j])
    for x in range(m):
        for j in range(d):
            if coeffs[x][j] is None:
                raise SchemaError(f"missing coeff row for symbol {x + 1} coordinate {j + 1}")
    return ExactStatMap(
        spec=family,
        basis_names=tuple(names),
        basis_hints=tuple(hints),
        coeffs=tuple(tuple(coeffs[x][j] for j in range(d)) for x in range(m)),
    )


def parse_spec_file(path: str | Path) -> ParsedSpec:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileNotFoundError(f"cannot read spec file {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"spec file {p} is not UTF-8 text: {exc}") from None
    return parse_spec_text(text)


def canonical_text(spec: ParsedSpec) -> str:
    """Normalized serialization used for hashing; logically equal specs
    (same numbers, whatever formatting) hash identically."""
    out = []
    if spec.kind == "markov":
        ms = spec.markov
        out.append(f"alphabet_size {ms.alphabet.size}")
        out.append(f"d {ms.d}")
        for row in ms.tau2:
            out.append("tau2 " + " ".join(repr(v) for v in row))
        out.append(f"rho_max {ms.rho_max!r}")
        out.append(f"x0 {ms.x0}")
    else:
        fam = spec.family
        out.append(f"alphabet_size {fam.alphabet.size}")
        out.append(f"d {fam.d}")
        for row in fam.tau:
            out.append("tau " + " ".join(repr(v) for v in row))
        out.append(f"rho_max {fam.rho_max!r}")
        if spec.stat_map is not None:
            sm = spec.stat_map
            for j in range(fam.d):
                entries = " ".join(
                    f"{nm}={hv!r}" for nm, hv in zip(sm.basis_names[j], sm.basis_hints[j])
                )
                out.append(f"basis {j + 1} {entries}")
            for x in range(fam.alphabet.size):
                for j in range(fam.d):
                    vals = " ".join(str(v) for v in sm.coeffs[x][j])
                    out.append(f"coeff {x + 1} {j + 1} {vals}")
    return "\n".join(out) + "\n"
