"""Malformed input at the file boundaries ends in a documented error.

Spec text either parses or raises SchemaError/SpecError; container bytes
either unpack or raise ContainerError. Neither may end in another exception
(a CLI traceback) or allocate by a size field before checking it.
"""

import struct
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tscode import container as containerfmt
from tscode.cli import main
from tscode.codec import Codeword
from tscode.errors import ContainerError, SchemaError, SpecError
from tscode.specfile import ParsedSpec, parse_spec_text

FIELDS = ("alphabet_size", "d", "tau", "tau2", "rho_max", "theta_star",
          "basis", "coeff", "x0")
TOKENS = ("0", "1", "-1", "2", "3", "0.5", "1/3", "2/3/4", "1/0", "-0", "1e308",
          "-1e308", "1e400", "1e-400", "1e999999999", "999999999999", "nan",
          "inf", "x", "one=1", "sqrt2=1.4142135623730951", "=1", "a=")
SPEC_LINES = (
    "alphabet_size 3", "d 1", "d 2", "tau 0", "tau 1", "tau 0 0", "tau 1 0",
    "tau 0 1", "tau 1.4142135623730951", "tau2 0", "tau2 1", "tau2 0 0",
    "rho_max 3", "theta_star 1", "theta_star 0.6 -0.4", "x0 1",
    "basis 1 one=1 sqrt2=1.4142135623730951", "coeff 1 1 0 0", "coeff 2 1 1 0",
    "coeff 3 1 0 1",
)

token = st.one_of(st.sampled_from(TOKENS), st.integers(-10**15, 10**15).map(str),
                  st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6))
line = st.one_of(
    st.sampled_from(SPEC_LINES),
    st.builds(lambda f, ts: " ".join((f, *ts)), st.sampled_from(FIELDS),
              st.lists(token, max_size=4)),
    st.text(max_size=30),
)
VALID_SPECS = (
    "alphabet_size 2\nd 1\ntau 0\ntau 1\nrho_max 3\ntheta_star 1.2",
    "alphabet_size 3\nd 2\ntau 0 0\ntau 1 0\ntau 0 1\nrho_max 2\ntheta_star 0.6 -0.4",
    "alphabet_size 3\nd 1\ntau 0\ntau 1\ntau 1.4142135623730951\nrho_max 3\n"
    "basis 1 one=1 sqrt2=1.4142135623730951\ncoeff 1 1 0 0\ncoeff 2 1 1 0\ncoeff 3 1 0 1",
    "alphabet_size 2\nd 1\ntau2 0\ntau2 1\ntau2 1\ntau2 0\nrho_max 3\nx0 1\ntheta_star 0.5",
)


@st.composite
def mutated_spec(draw):
    """A valid spec with a few tokens replaced and lines dropped or repeated."""
    rows = [ln.split() for ln in draw(st.sampled_from(VALID_SPECS)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(("replace", "drop", "repeat")))
        if op == "replace":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(
                st.sampled_from(TOKENS) | st.sampled_from(TOKENS) | token)
        elif op == "drop" and len(rows) > 1:
            del rows[i]
        else:
            rows.insert(i, list(rows[i]))
    return "\n".join(" ".join(r) for r in rows)


spec_text = st.one_of(mutated_spec(), mutated_spec(), st.lists(line, max_size=14).map("\n".join), st.text())


class TestSpecText:
    @given(spec_text)
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_text_parses_or_raises_a_spec_error(self, text):
        try:
            assert isinstance(parse_spec_text(text), ParsedSpec)
        except (SchemaError, SpecError):
            pass

    @pytest.mark.parametrize("bad", [
        "alphabet_size 2\nd 999999999999\ntau 0\ntau 1\nrho_max 1\n",
        "alphabet_size 2\nd 999999999999\ntau2 0\ntau2 1\ntau2 1\ntau2 0\nrho_max 1\nx0 1\n",
        "alphabet_size 999999999999\nd 1\ntau 0\ntau 1\nrho_max 1\n",
        "alphabet_size 1\nd 1\ntau 0\nrho_max 1\n",
        "alphabet_size 2\nd 0\ntau\ntau\nrho_max 1\n",
        "alphabet_size 2\nd 1\ntau 0\ntau 1e400\nrho_max 1\n",
        "alphabet_size 2\nd 1\ntau 0\ntau 1e-999999999\nrho_max 1\n",
        "alphabet_size 3\nd 1\ntau 0\ntau 1\ntau 2\nrho_max 3\nbasis 1 one=1 sqrt2=1.4\n"
        "coeff 2 1 1 0\ncoeff 3 1 0 1e900\n",
    ])
    def test_size_fields_and_numbers_are_checked_before_use(self, tmp_path, bad):
        with pytest.raises(SchemaError):
            parse_spec_text(bad)
        path = tmp_path / "bad.spec"
        path.write_text(bad)
        assert main(["validate", "--spec", str(path)]) == 2

    def test_long_rational_chain_does_not_recurse(self):
        chain = "/".join(["1"] * 5000)  # a / (b / (c / ...)) = 1
        spec = parse_spec_text(f"alphabet_size 2\nd 1\ntau 0\ntau {chain}\nrho_max 1\n")
        assert spec.family.tau == ((0.0,), (1.0,))


def _container(mode, bits, anchor, n, s):
    """A container whose codeword is the string ``bits``: w bits of value v
    are the codeword of index 2^w - 1 + v."""
    return containerfmt.Container(
        spec_hash=bytes(range(32)), mode=mode, s=s, anchor=tuple(anchor),
        x0=2 if mode == "markov" else None, n=n,
        codeword=Codeword(2 ** len(bits) - 1 + int(bits or "0", 2)))


container_args = st.tuples(
    st.sampled_from(sorted(containerfmt.MODE_BYTES)),
    st.text(alphabet="01", max_size=80),
    st.lists(st.floats(allow_nan=False), max_size=3),
    st.integers(0, 2**32 - 1),
    st.floats(allow_nan=False),
)
containers = container_args.map(lambda args: _container(*args))


class TestContainerBytes:
    @given(container_args)
    @settings(max_examples=300, deadline=None)
    def test_pack_unpack_round_trips(self, args):
        c = _container(*args)
        data = containerfmt.pack(c)
        assert containerfmt.unpack(data) == c
        # MSB first, zero padded to a byte boundary
        bits = args[1]
        body = data[len(data) - (len(bits) + 7) // 8:]
        assert struct.unpack(">Q", data[-len(body) - 8:len(data) - len(body)])[0] == len(bits)
        assert "".join(format(b, "08b") for b in body) == bits.ljust(8 * len(body), "0")

    @given(st.one_of(
        st.binary(max_size=120),
        st.tuples(containers, st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                                       min_size=1, max_size=4),
                  st.integers(-12, 3)),
    ))
    @settings(max_examples=600, deadline=None)
    def test_any_bytes_unpack_or_raise_a_container_error(self, case):
        if isinstance(case, bytes):
            data = case
        else:  # a valid container with bytes overwritten and its length changed
            c, edits, resize = case
            buf = bytearray(containerfmt.pack(c))
            for pos, value in edits:
                buf[pos % len(buf)] = value
            data = bytes(buf[:len(buf) + resize] if resize < 0 else buf + bytes(resize))
        try:
            assert isinstance(containerfmt.unpack(data), containerfmt.Container)
        except ContainerError:
            pass


def _reference_pack(c: containerfmt.Container) -> bytes:
    """TSZ1 laid out as the container module's docstring says, from the
    codeword as a bit string: the k-th string of {empty, 0, 1, 00, ...} has
    w = floor(log2(k+1)) bits and value k + 1 - 2^w."""
    k = c.codeword.index
    width = (k + 1).bit_length() - 1
    bits = format(k + 1 - (1 << width), f"0{width}b") if width else ""
    out = b"TSZ1" + c.spec_hash + bytes([containerfmt.MODE_BYTES[c.mode]])
    out += struct.pack(">dH", c.s, len(c.anchor))
    out += b"".join(struct.pack(">d", a) for a in c.anchor)
    if c.mode == "markov":
        out += struct.pack(">H", c.x0)
    out += struct.pack(">IQ", c.n, len(bits))
    padded = bits + "0" * (-len(bits) % 8)
    return out + bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8))


def _widths_and_indices():
    """Indices of codeword lengths 0-70 (the first, last and a middle index of
    each length) and of 790, 1,600 and 15,000 bits (790 is ternary n = 512)."""
    for width in [*range(71), 790, 1600, 15000]:
        first, last = (1 << width) - 1, (1 << (width + 1)) - 2
        for k in {first, last, first + (0x5A5A5A5A5A5A5A5A5A5A % (last - first + 1))}:
            yield width, k


class TestTsz1Bytes:
    @pytest.mark.parametrize("mode", sorted(containerfmt.MODE_BYTES))
    def test_pack_matches_the_bit_string_reference(self, mode):
        for width, k in _widths_and_indices():
            c = replace(_container(mode, "", (0.5, -2.0), 7, 1.5), codeword=Codeword(k))
            data = containerfmt.pack(c)
            assert data == _reference_pack(c)
            assert c.codeword.length == width
            assert containerfmt.unpack(data) == c
