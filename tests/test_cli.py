import argparse
import decimal
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tscode
from tscode import container as containerfmt
from tscode.cli import main, make_parser
from tscode.codec import Codeword
from tscode.errors import ContainerError, SchemaError
from tscode.rates import SourceSpec, build_index, m_eps, third_order_fit
from tscode.specfile import canonical_text, parse_exact_real, parse_spec_text

BERN_SPEC = """
# Bernoulli family with the true model at P(1) = 0.3
alphabet_size 2
d 1
tau 0
tau 1
rho_max 3
theta_star 1.2223924213364479
"""

SQRT2_SPEC = """
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
"""

TERN_SPEC = """
alphabet_size 3
d 2
tau 0 0
tau 1 0
tau 0 1
rho_max 2
theta_star 0.6 -0.4
"""

# tau(3) is the double nearest 0.1, whose denominator 2^55 the lattice map
# clears: L = (0, 2^55, 3602879701896397), so keys past n = 255 leave int64
WIDE_SPEC = """
alphabet_size 3
d 1
tau 0
tau 1
tau 0.1
rho_max 3
basis 1 one=1
coeff 2 1 1
coeff 3 1 3602879701896397/36028797018963968
theta_star 1
"""
# an L entry of 10^23, past int64: no blocklength can index this lattice
DEEP_SPEC = WIDE_SPEC.replace("0.1", "1e-23").replace("3602879701896397/36028797018963968",
                                                      "1e-23")

# theta_star outside the rho_max ball: the codec runs, the analysis refuses
FAR_SPEC = BERN_SPEC.replace("theta_star 1.2223924213364479", "theta_star 5")

FLIP_SPEC = """
alphabet_size 2
d 1
tau2 0
tau2 1
tau2 1
tau2 0
rho_max 3
x0 1
theta_star 1
"""


class TestSpecFileParsing:
    def test_family_file(self):
        spec = parse_spec_text(BERN_SPEC)
        assert spec.kind == "family"
        assert spec.family.alphabet.size == 2
        assert spec.theta_star == (1.2223924213364479,)

    def test_point_file(self):
        spec = parse_spec_text(SQRT2_SPEC)
        assert spec.kind == "point"
        assert spec.stat_map is not None
        assert spec.stat_map.basis_names == (("one", "sqrt2"),)

    def test_markov_file(self):
        spec = parse_spec_text(FLIP_SPEC)
        assert spec.kind == "markov"
        assert spec.markov.x0 == 1

    def test_exact_decimal_parsing(self):
        assert parse_exact_real("0.1") * 10 == 1
        assert parse_exact_real("1/3") * 3 == 1
        assert float(parse_exact_real("2.5e-1")) == 0.25

    def test_nan_inf_rejected(self):
        for bad in ("nan", "inf", "-inf", "NaN"):
            with pytest.raises(SchemaError):
                parse_exact_real(bad)

    def test_wrong_row_length_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_spec_text("alphabet_size 2\nd 2\ntau 0\ntau 1\nrho_max 1\n")

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown"):
            parse_spec_text(BERN_SPEC + "\nbogus 1\n")

    def test_markov_and_iid_rows_conflict(self):
        with pytest.raises(SchemaError):
            parse_spec_text("alphabet_size 2\nd 1\ntau 0\ntau 1\ntau2 0\nrho_max 1\nx0 1\n")

    def test_hash_ignores_formatting(self):
        a = parse_spec_text(BERN_SPEC)
        b = parse_spec_text("alphabet_size 2\nd 1\ntau 0.0\ntau 1.00\nrho_max 3.0\n")
        assert a.spec_hash == b.spec_hash  # theta_star is not part of the hash

    def test_hash_distinguishes_families(self):
        a = parse_spec_text(BERN_SPEC)
        b = parse_spec_text("alphabet_size 2\nd 1\ntau 0\ntau 2\nrho_max 3\n")
        assert a.spec_hash != b.spec_hash

    def test_canonical_text_round_trips(self):
        spec = parse_spec_text(SQRT2_SPEC)
        again = parse_spec_text(canonical_text(spec))
        assert again.spec_hash == spec.spec_hash

    @pytest.mark.parametrize("text, message", [
        (SQRT2_SPEC + "coeff 2 1 5 0\n", "repeated coeff row for symbol 2 coordinate 1"),
        (SQRT2_SPEC + "basis 1 one=1 pi=3.14\n", "repeated basis row for coordinate 1"),
        (BERN_SPEC + "x0 1\n", "a tau spec file may not contain x0 rows"),
        (FLIP_SPEC + "basis 1 one=1\n", "a tau2 spec file may not contain basis rows"),
        (FLIP_SPEC + "coeff 1 1 0\n", "a tau2 spec file may not contain coeff rows"),
    ], ids=["repeated-coeff", "repeated-basis", "memoryless-x0", "markov-basis",
            "markov-coeff"])
    def test_rows_that_would_be_dropped_are_schema_errors(self, tmp_path, capsys, text,
                                                          message):
        with pytest.raises(SchemaError, match=message):
            parse_spec_text(text)
        spec = tmp_path / "dropped.spec"
        spec.write_text(text)
        assert main(["validate", "--spec", str(spec)]) == 2
        assert message in capsys.readouterr().err


class TestContainerFormat:
    def test_round_trip(self):
        c = containerfmt.Container(
            spec_hash=bytes(range(32)), mode="quantized", s=1.0,
            anchor=(0.0,), x0=None, n=10, codeword=Codeword(2 ** 5 - 1 + 0b10110))
        assert containerfmt.unpack(containerfmt.pack(c)) == c

    def test_markov_round_trip(self):
        c = containerfmt.Container(
            spec_hash=bytes(32), mode="markov", s=2.0,
            anchor=(0.5,), x0=1, n=12, codeword=Codeword(0))
        assert containerfmt.unpack(containerfmt.pack(c)) == c

    def test_truncation_detected(self):
        c = containerfmt.Container(
            spec_hash=bytes(32), mode="point", s=0.0,
            anchor=(), x0=None, n=4, codeword=Codeword(2 ** 2 - 1 + 0b11))
        data = containerfmt.pack(c)
        with pytest.raises(ContainerError, match="truncated"):
            containerfmt.unpack(data[:-1])

    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="magic"):
            containerfmt.unpack(b"XXXX" + bytes(50))

    def test_trailing_bytes_detected(self):
        c = containerfmt.Container(
            spec_hash=bytes(32), mode="quantized", s=1.0,
            anchor=(0.0,), x0=None, n=4, codeword=Codeword(2 ** 1 - 1 + 0b1))
        with pytest.raises(ContainerError, match="trailing"):
            containerfmt.unpack(containerfmt.pack(c) + b"\x00")

    # `tscode encode` output, captured before codewords were held as integers;
    # the n = 256 case before one rank path ran at every n
    @pytest.mark.parametrize("spec_file, mode, symbols, hexdata", [
        ("tern.spec", "quantized", [(i * i + i // 2) % 3 + 1 for i in range(40)],
         "54535a313813e35c1c2446bdebad308b61d5f6405349c85517172e7deba92070509550"
         "4e003ff000000000000000020000000000000000000000000000000000000028000000"
         "000000003b25b8597a98ab0d60"),
        ("sqrt2.spec", "point", [(i * 7 % 5) % 3 + 1 for i in range(30)],
         "54535a3135d24c82f4ab6d0caba1f9b33924441a0a237c747216acff22fa75182e9683"
         "6401000000000000000000000000001e000000000000002d98b6fd305540"),
        ("flip.spec", "markov", [(i // 3) % 2 + 1 for i in range(12)],
         "54535a31f9365ceaf89fd3fc4a961a93b4e982300576434e2ca5fc2966ba895d3f5bbb"
         "b6023ff00000000000000001000000000000000000010000000c0000000000000007cc"),
        ("tern.spec", "quantized", [(i * i + i // 2) % 3 + 1 for i in range(256)],
         "54535a313813e35c1c2446bdebad308b61d5f6405349c85517172e7deba92070509550"
         "4e003ff000000000000000020000000000000000000000000000000000000100000000"
         "00000001766d76d66270952d2a95eeb7f0bd07465765c1d77c4348858072987f56123c"
         "29f20014101496bc29a0a82464de93414c"),
    ], ids=["quantized", "point", "markov", "quantized-n256"])
    def test_encode_output_is_pinned(self, workdir, spec_file, mode, symbols, hexdata):
        seq = workdir / "seq.txt"
        seq.write_text(" ".join(map(str, symbols)) + "\n")
        cont, out = workdir / "seq.tsz", workdir / "seq.out"
        spec = str(workdir / spec_file)
        assert main(["encode", "--spec", spec, "--mode", mode, str(seq), str(cont)]) == 0
        assert cont.read_bytes().hex() == hexdata
        assert main(["decode", "--spec", spec, "--mode", mode, str(cont), str(out)]) == 0
        assert out.read_bytes() == seq.read_bytes()

    def test_nonzero_padding_detected(self):
        c = containerfmt.Container(
            spec_hash=bytes(32), mode="quantized", s=1.0,
            anchor=(0.0,), x0=None, n=4, codeword=Codeword(2 ** 1 - 1 + 0b1))
        data = bytearray(containerfmt.pack(c))
        data[-1] |= 0x01
        with pytest.raises(ContainerError, match="padding"):
            containerfmt.unpack(bytes(data))


def _cli_env():
    """The environment of a child Python that imports this tscode."""
    return {**os.environ, "PYTHONPATH": str(Path(tscode.__file__).resolve().parent.parent)}


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "bern.spec").write_text(BERN_SPEC)
    (tmp_path / "sqrt2.spec").write_text(SQRT2_SPEC)
    (tmp_path / "flip.spec").write_text(FLIP_SPEC)
    (tmp_path / "tern.spec").write_text(TERN_SPEC)
    (tmp_path / "wide.spec").write_text(WIDE_SPEC)
    return tmp_path


class TestValidateCommand:
    def test_valid_spec_exits_zero(self, workdir, capsys):
        assert main(["validate", "--spec", str(workdir / "bern.spec")]) == 0
        assert "valid" in capsys.readouterr().out

    def test_point_spec_reports_lattice_dimension(self, workdir, capsys):
        assert main(["validate", "--spec", str(workdir / "sqrt2.spec")]) == 0
        assert "d_prime 2" in capsys.readouterr().out
        # an entry of 2^55 leaves keys in int64 up to n = 255
        assert main(["validate", "--spec", str(workdir / "wide.spec")]) == 0
        assert capsys.readouterr().out == "valid\nkind point\nalphabet 3 d 1\nd_prime 1\n"

    def test_lattice_past_int64_exit_3(self, workdir, capsys):
        spec = workdir / "deep.spec"
        spec.write_text(DEEP_SPEC)
        assert main(["validate", "--spec", str(spec)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invariant error: lattice keys n L(x^n) out of int64 range at "
                                "every n: the largest |L| entry has 77 bits\n")

    def test_schema_error_exit_2(self, workdir, capsys):
        bad = workdir / "bad.spec"
        bad.write_text("alphabet_size 2\nd 2\ntau 0\ntau 1\nrho_max 1\n")
        assert main(["validate", "--spec", str(bad)]) == 2

    def test_invariant_error_exit_3(self, workdir):
        bad = workdir / "badrow.spec"
        bad.write_text("alphabet_size 2\nd 1\ntau2 0\ntau2 1\ntau2 0.5\ntau2 0\nrho_max 2\nx0 1\n")
        assert main(["validate", "--spec", str(bad)]) == 3

    @pytest.mark.parametrize("spec_text, head, norm", [
        (FAR_SPEC, "kind family\nalphabet 2 d 1", "5"),
        (FLIP_SPEC.replace("theta_star 1", "theta_star -4"), "kind markov\nalphabet 2 d 1 x0 1",
         "4"),
    ], ids=["family", "markov"])
    def test_theta_star_outside_ball_is_a_warning(self, workdir, capsys, spec_text, head, norm):
        # encode and decode never read theta_star, so the spec stays valid
        spec = workdir / "far.spec"
        spec.write_text(spec_text)
        assert main(["validate", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out == (
            f"valid\n{head}\nwarning: theta_star refused by rate, fit and check: "
            f"theta norm {norm} exceeds rho_max 3\n")

    def test_markov_spec_reports_its_chain(self, workdir, capsys):
        assert main(["validate", "--spec", str(workdir / "flip.spec")]) == 0
        assert "alphabet 2 d 1 x0 1" in capsys.readouterr().out.splitlines()

    def test_unreadable_exit_1(self, workdir):
        assert main(["validate", "--spec", str(workdir / "missing.spec")]) == 1

    def test_non_utf8_spec_is_a_schema_error(self, workdir, capsys):
        spec = workdir / "latin1.spec"
        spec.write_bytes(BERN_SPEC.replace("Bernoulli", "Bernoulli caf\xe9").encode("latin-1"))
        assert main(["validate", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err.startswith(
            f"schema error: spec file {spec} is not UTF-8 text: 'utf-8' codec can't decode")


class TestEncodeDecodeCommands:
    def _round_trip(self, workdir, spec, mode, symbols):
        seq = workdir / "seq.txt"
        seq.write_text(" ".join(str(v) for v in symbols) + "\n")
        cont = workdir / "seq.tsz"
        out = workdir / "seq.out"
        assert main(["encode", "--spec", spec, "--mode", mode,
                     str(seq), str(cont)]) == 0
        assert main(["decode", "--spec", spec, "--mode", mode,
                     str(cont), str(out)]) == 0
        assert out.read_bytes() == seq.read_bytes()

    def test_quantized_round_trip(self, workdir):
        rng = np.random.default_rng(0)
        self._round_trip(workdir, str(workdir / "bern.spec"), "quantized",
                         rng.integers(1, 3, size=12))

    def test_point_round_trip_ternary(self, workdir):
        rng = np.random.default_rng(1)
        self._round_trip(workdir, str(workdir / "sqrt2.spec"), "point",
                         rng.integers(1, 4, size=10))

    def test_markov_round_trip(self, workdir):
        rng = np.random.default_rng(2)
        self._round_trip(workdir, str(workdir / "flip.spec"), "markov",
                         rng.integers(1, 3, size=10))

    def test_point_mode_refuses_grid_options(self, workdir, capsys):
        # point classes use no grid, so a given --s or --anchor is an error
        seq = workdir / "seq.txt"
        seq.write_text("1 3 2 2 1 3 3 1 2 1\n")
        spec = str(workdir / "sqrt2.spec")
        cont = workdir / "point.tsz"
        for extra in (["--anchor", "1.5"], ["--s", "1"], ["--s", "3", "--anchor", "0.25"]):
            for argv in (["encode", str(seq), str(cont)], ["rate", "--n", "8"],
                         ["fit", "--n-grid", "4,8,16"]):
                assert main([argv[0], "--spec", spec, "--mode", "point", *extra, *argv[1:]]) == 2
                err = capsys.readouterr().err
                assert "mode point uses no grid" in err and extra[0] in err
        assert not cont.exists()
        assert main(["encode", "--spec", spec, "--mode", "point", str(seq), str(cont)]) == 0
        parsed = containerfmt.unpack(cont.read_bytes())
        assert parsed.s == 0.0 and parsed.anchor == ()
        # check has no --mode: its quantized checks read --s on a point spec too
        assert main(["check", "--spec", spec, "--n-grid", "4,8", "--s", "2"]) == 0

    @pytest.mark.parametrize("spec_text, mode, symbols", [
        (FAR_SPEC, "quantized", [1, 2, 2, 1, 1, 1, 2, 1]),
        (FLIP_SPEC.replace("theta_star 1", "theta_star -4"), "markov", [2, 2, 1, 2, 1, 1]),
    ], ids=["quantized", "markov"])
    def test_theta_star_outside_ball_does_not_block_the_codec(self, workdir, spec_text,
                                                              mode, symbols):
        # theta_star only feeds the analysis commands, which reject it
        spec = workdir / "far.spec"
        spec.write_text(spec_text)
        self._round_trip(workdir, str(spec), mode, symbols)
        assert main(["rate", "--spec", str(spec), "--mode", mode, "--n", "6"]) == 3

    def test_decode_takes_the_container_mode_without_mode(self, workdir, capsys):
        # a point spec admits quantized containers too
        seq = workdir / "seq.txt"
        seq.write_text("1 3 2 2 3 1 1 2 3 3 2 1 3 3 1 2\n")
        spec, cont, out = str(workdir / "sqrt2.spec"), workdir / "seq.tsz", workdir / "seq.out"
        assert main(["encode", "--spec", spec, "--mode", "quantized", str(seq), str(cont)]) == 0
        assert main(["decode", "--spec", spec, str(cont), str(out)]) == 0
        assert out.read_bytes() == seq.read_bytes()
        out.unlink()
        capsys.readouterr()
        assert main(["decode", "--spec", spec, "--mode", "point", str(cont), str(out)]) == 5
        assert capsys.readouterr().err == ("container error: container mode quantized does not "
                                           "match --mode point\n")
        assert not out.exists()

    @pytest.mark.parametrize("spec_file, mode, kind, problem", [
        ("bern.spec", "point", "family", "mode point requires basis/coeff rows in the spec file"),
        ("flip.spec", "quantized", "markov", "mode quantized cannot use a markov spec file"),
    ], ids=["point-on-tau", "quantized-on-tau2"])
    def test_decode_refuses_a_container_mode_the_spec_kind_rules_out(self, workdir, capsys,
                                                                     spec_file, mode, kind,
                                                                     problem):
        spec = workdir / spec_file
        cont, out = workdir / "forged.tsz", workdir / "never.txt"
        cont.write_bytes(containerfmt.pack(containerfmt.Container(
            spec_hash=parse_spec_text(spec.read_text()).spec_hash, mode=mode, s=0.0,
            anchor=(), x0=None, n=4, codeword=Codeword(0))))
        assert main(["decode", "--spec", str(spec), str(cont), str(out)]) == 5
        assert capsys.readouterr().err == (f"container error: container mode {mode} does not "
                                           f"suit spec kind {kind}: {problem}\n")
        assert not out.exists()

    def test_hash_mismatch_refused_no_partial_output(self, workdir):
        seq = workdir / "seq.txt"
        seq.write_text("1 2 1 2 1 2\n")
        cont = workdir / "seq.tsz"
        assert main(["encode", "--spec", str(workdir / "bern.spec"),
                     "--mode", "quantized", str(seq), str(cont)]) == 0
        other = workdir / "other.spec"
        other.write_text("alphabet_size 2\nd 1\ntau 0\ntau 2\nrho_max 3\n")
        out = workdir / "never.out"
        assert main(["decode", "--spec", str(other), "--mode", "quantized",
                     str(cont), str(out)]) == 5
        assert not out.exists()

    def test_constant_sequence_gets_short_codeword(self, workdir):
        seq = workdir / "ones.txt"
        seq.write_text(" ".join(["1"] * 10) + "\n")
        cont = workdir / "ones.tsz"
        assert main(["encode", "--spec", str(workdir / "bern.spec"),
                     "--mode", "quantized", str(seq), str(cont)]) == 0
        parsed = containerfmt.unpack(cont.read_bytes())
        assert parsed.codeword.length <= 1  # singleton class ranks first

    @pytest.mark.parametrize("spec_file, mode, symbols, problem", [
        ("tern.spec", "quantized", "1 2 0 1", "symbol 0 at position 3 is outside 1..3"),
        ("tern.spec", "quantized", "1 2 3 4", "symbol 4 at position 4 is outside 1..3"),
        ("sqrt2.spec", "point", "3 1 4", "symbol 4 at position 3 is outside 1..3"),
        ("flip.spec", "markov", "2 0", "symbol 0 at position 2 is outside 1..2"),
        ("tern.spec", "quantized", "1 2 x 1", "must contain integer symbols"),
    ], ids=["zero", "m+1", "point", "markov", "non-integer"])
    def test_bad_symbol_is_a_schema_error(self, workdir, capsys, spec_file, mode, symbols,
                                          problem):
        seq = workdir / "bad.txt"
        seq.write_text(symbols + "\n")
        cont = workdir / "bad.tsz"
        assert main(["encode", "--spec", str(workdir / spec_file), "--mode", mode,
                     str(seq), str(cont)]) == 2
        sep = " " if problem.startswith("must") else ": "
        assert capsys.readouterr().err == f"schema error: sequence file {seq}{sep}{problem}\n"
        assert not cont.exists()

    def test_non_utf8_symbol_file_is_a_schema_error(self, workdir, capsys):
        seq = workdir / "bad.txt"
        seq.write_bytes(b"\xff\xfe1 2 1\n")
        cont = workdir / "bad.tsz"
        assert main(["encode", "--spec", str(workdir / "bern.spec"), "--mode", "quantized",
                     str(seq), str(cont)]) == 2
        assert capsys.readouterr().err.startswith(
            f"schema error: sequence file {seq} is not UTF-8 text: 'utf-8' codec can't decode")
        assert not cont.exists()

    def test_point_keys_past_int64_exit_3_and_5(self, workdir, capsys):
        # 700 * 2^55 >= 2^63: encode refuses the index, and decode a
        # container of that n as corrupt, instead of merging lattice points
        spec = workdir / "wide.spec"
        seq = workdir / "seq.txt"
        seq.write_text(" ".join(str(i % 3 + 1) for i in range(700)) + "\n")
        cont = workdir / "seq.tsz"
        assert main(["encode", "--spec", str(spec), "--mode", "point", str(seq), str(cont)]) == 3
        assert capsys.readouterr().err == ("invariant error: lattice keys n L(x^n) out of int64 "
                                           "range at n=700: the largest |L| entry has 56 bits\n")
        assert not cont.exists()
        cont.write_bytes(containerfmt.pack(containerfmt.Container(
            spec_hash=parse_spec_text(WIDE_SPEC).spec_hash, mode="point", s=0.0, anchor=(),
            x0=None, n=700, codeword=Codeword(0))))
        assert main(["decode", "--spec", str(spec), "--mode", "point",
                     str(cont), str(workdir / "never.txt")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("container error: ") and "out of int64 range at n=700" in err
        assert not (workdir / "never.txt").exists()

    @pytest.mark.parametrize("spec_file, mode, header, needed", [
        ("flip.spec", "markov", dict(s=1.0, anchor=(0.0,), x0=1), "2^4294967295"),
        ("bern.spec", "quantized", dict(s=1.0, anchor=(0.0,), x0=None), str(2 ** 32)),
        ("sqrt2.spec", "point", dict(s=0.0, anchor=(), x0=None), str(math.comb(2 ** 32 + 1, 2))),
    ], ids=["markov", "quantized", "point"])
    def test_forged_huge_n_exits_4(self, workdir, capsys, spec_file, mode, header, needed):
        spec = workdir / spec_file
        cont = workdir / "forged.tsz"
        cont.write_bytes(containerfmt.pack(containerfmt.Container(
            spec_hash=parse_spec_text(spec.read_text()).spec_hash, mode=mode,
            n=2 ** 32 - 1, codeword=Codeword(2 ** 3 - 1 + 0b101), **header)))
        start = time.perf_counter()
        assert main(["decode", "--spec", str(spec), "--mode", mode,
                     str(cont), str(workdir / "never.txt")]) == 4
        assert time.perf_counter() - start < 5.0
        assert f"requires {needed} items" in capsys.readouterr().err
        assert not (workdir / "never.txt").exists()

    @pytest.mark.parametrize("spec_file, mode, header, n", [
        ("flip.spec", "markov", dict(s=1.0, anchor=(0.0,), x0=1), 31),
        ("bern.spec", "quantized", dict(s=1.0, anchor=(0.0,), x0=None), 2 ** 31 - 1),
    ], ids=["markov", "quantized"])
    def test_forged_n_past_int32_ids_exits_4(self, workdir, capsys, spec_file, mode, header, n):
        # 2^31 members: refused whatever the budget, before any enumeration
        spec = workdir / spec_file
        cont = workdir / "forged.tsz"
        cont.write_bytes(containerfmt.pack(containerfmt.Container(
            spec_hash=parse_spec_text(spec.read_text()).spec_hash, mode=mode,
            n=n, codeword=Codeword(2 ** 3 - 1 + 0b101), **header)))
        assert main(["decode", "--spec", str(spec), "--mode", mode, "--budget", str(2 ** 40),
                     str(cont), str(workdir / "never.txt")]) == 4
        assert "member ids are int32" in capsys.readouterr().err
        assert not (workdir / "never.txt").exists()

    @pytest.mark.parametrize("spec_file, mode, header", [
        ("flip.spec", "markov", dict(s=1.0, anchor=(0.0,), x0=1)),
        ("bern.spec", "quantized", dict(s=1.0, anchor=(0.0,), x0=None)),
        ("sqrt2.spec", "point", dict(s=0.0, anchor=(), x0=None)),
    ], ids=["markov", "quantized", "point"])
    def test_forged_empty_sequence_exits_5(self, workdir, capsys, spec_file, mode, header):
        spec = workdir / spec_file
        cont = workdir / "forged.tsz"
        cont.write_bytes(containerfmt.pack(containerfmt.Container(
            spec_hash=parse_spec_text(spec.read_text()).spec_hash, mode=mode,
            n=0, codeword=Codeword(0), **header)))
        assert main(["decode", "--spec", str(spec), "--mode", mode,
                     str(cont), str(workdir / "never.txt")]) == 5
        assert "container blocklength n=0" in capsys.readouterr().err
        assert not (workdir / "never.txt").exists()

    def test_codeword_past_the_last_sequence_exits_5(self, workdir, capsys):
        # 15,000 bits at n = 1: the message names the width, not the index
        spec = workdir / "tern.spec"
        cont = workdir / "forged.tsz"
        cont.write_bytes(containerfmt.pack(containerfmt.Container(
            spec_hash=parse_spec_text(spec.read_text()).spec_hash, mode="quantized", s=1.0,
            anchor=(0.0, 0.0), x0=None, n=1, codeword=Codeword((1 << 15000) + 12345))))
        assert main(["decode", "--spec", str(spec), "--mode", "quantized",
                     str(cont), str(workdir / "never.txt")]) == 5
        assert "a 15000-bit codeword is past the last sequence at n=1" in capsys.readouterr().err
        assert not (workdir / "never.txt").exists()

    def test_decode_into_directory_exits_1_without_temp_files(self, workdir, capsys):
        seq = workdir / "seq.txt"
        seq.write_text("1 2 1 1 2 2\n")
        cont = workdir / "seq.tsz"
        assert main(["encode", "--spec", str(workdir / "bern.spec"),
                     "--mode", "quantized", str(seq), str(cont)]) == 0
        target = workdir / "adir"
        target.mkdir()
        before = sorted(os.listdir(workdir))
        capsys.readouterr()
        assert main(["decode", "--spec", str(workdir / "bern.spec"), "--mode", "quantized",
                     str(cont), str(target)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(workdir)) == before
        assert not any(target.iterdir())

    def test_budget_exit_4(self, workdir, capsys):
        seq = workdir / "seq.txt"
        seq.write_text("1 2 1 2 1 2 1 2\n")
        # n = 8 has C(9, 1) binary compositions, C(10, 2) ternary ones and 2^8 paths
        for spec_file, mode, members in [("bern.spec", "quantized", 9),
                                         ("sqrt2.spec", "point", 45),
                                         ("flip.spec", "markov", 256)]:
            for budget, code in [(members - 1, 4), (members, 0)]:
                assert main(["encode", "--spec", str(workdir / spec_file), "--mode", mode,
                             "--budget", str(budget), str(seq), str(workdir / "x.tsz")]) == code
                err = capsys.readouterr().err
                assert ("(raise --budget)" in err) == (code == 4), (mode, budget)


class TestGridValidation:
    """A grid with a non-finite anchor, or so fine that a cell index leaves
    int64, is refused: exit 2 on the command line, 3 when the cells cannot
    be numbered, 5 when it comes from a container."""

    def _encode(self, workdir, spec, symbols, *extra):
        seq = workdir / "seq.txt"
        seq.write_text(" ".join(map(str, symbols)) + "\n")
        cont = workdir / "seq.tsz"
        code = main(["encode", "--spec", str(workdir / spec), *extra, str(seq), str(cont)])
        return code, cont

    @pytest.mark.parametrize("extra, code, message", [
        (["--anchor", "nan,0"], 2, "anchor must be comma-separated finite reals"),
        (["--anchor", "0,-inf"], 2, "anchor must be comma-separated finite reals"),
        (["--s", "1e-300"], 3, "cell index out of int64 range"),
    ], ids=["nan-anchor", "inf-anchor", "tiny-s"])
    def test_encode_refuses_a_degenerate_grid(self, workdir, capsys, extra, code, message):
        got, cont = self._encode(workdir, "tern.spec", [1, 3, 2, 2], *extra)
        assert got == code
        assert message in capsys.readouterr().err
        assert not cont.exists()

    def test_rate_on_a_far_anchor_prints_only_the_error(self, workdir):
        # the cell index overflows to inf; the int64 range check reports it,
        # and numpy prints no warning of its own
        proc = subprocess.run([sys.executable, "-m", "tscode.cli", "rate",
                               "--spec", str(workdir / "bern.spec"), "--n", "3",
                               "--anchor", "1e308"], env=_cli_env(), capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "invariant error: cell index out of int64 range on the grid with side "
            "0.3333333333333333 and anchor (1e+308,)"]

    def test_rate_refuses_an_infinite_anchor(self, workdir, capsys):
        assert main(["rate", "--spec", str(workdir / "tern.spec"), "--n", "4",
                     "--anchor", "inf,0"]) == 2
        captured = capsys.readouterr()
        assert "finite reals" in captured.err and "81" not in captured.out

    @pytest.mark.parametrize("spec, mode, symbols, grid", [
        ("tern.spec", "quantized", [1, 3, 2, 2, 1], dict(anchor=(math.nan, 0.0))),
        ("tern.spec", "quantized", [1, 3, 2, 2, 1], dict(s=1e-300)),
        ("tern.spec", "quantized", [1, 3, 2, 2, 1], dict(anchor=(1e300, 0.0))),
        ("tern.spec", "quantized", [1, 3, 2, 2, 1], dict(s=math.inf)),
        ("flip.spec", "markov", [2, 2, 1, 2, 1, 1], dict(anchor=(math.nan,))),
        ("flip.spec", "markov", [2, 2, 1, 2, 1, 1], dict(s=1e-300)),
        ("sqrt2.spec", "point", [1, 3, 2, 2, 1], dict(s=1.0)),
        ("sqrt2.spec", "point", [1, 3, 2, 2, 1], dict(s=math.nan, anchor=(1e308, 5.0))),
    ], ids=["nan-anchor", "tiny-s", "far-anchor", "inf-s", "markov-nan-anchor",
            "markov-tiny-s", "point-s", "point-grid"])
    def test_decode_refuses_a_forged_grid(self, workdir, capsys, spec, mode, symbols, grid):
        code, cont = self._encode(workdir, spec, symbols, "--mode", mode)
        assert code == 0
        forged = replace(containerfmt.unpack(cont.read_bytes()), **grid)
        cont.write_bytes(containerfmt.pack(forged))
        out = workdir / "never.txt"
        assert main(["decode", "--spec", str(workdir / spec), "--mode", mode,
                     str(cont), str(out)]) == 5
        assert "container error: container grid" in capsys.readouterr().err
        assert not out.exists()


@st.composite
def cli_round_trip_inputs(draw):
    spec, mode, m, nmax, extra = draw(st.sampled_from([
        ("bern.spec", "quantized", 2, 16, ()),
        ("tern.spec", "quantized", 3, 10, ("--s", "0.7", "--anchor", "0.1,-0.2")),
        ("sqrt2.spec", "point", 3, 10, ()),
        ("flip.spec", "markov", 2, 10, ("--s", "0.5")),
    ]))
    symbols = draw(st.lists(st.integers(1, m), min_size=1, max_size=nmax))
    return spec, mode, extra, symbols


class TestCliRoundTrip:
    @given(cli_round_trip_inputs())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_decode_inverts_encode(self, workdir, capsys, inputs):
        spec, mode, extra, symbols = inputs
        seq = workdir / "seq.txt"
        seq.write_text(" ".join(map(str, symbols)) + "\n")
        cont, out = workdir / "seq.tsz", workdir / "seq.out"
        # the grid options go to encode only: decode reads the grid from the container
        common = ["--spec", str(workdir / spec), "--mode", mode]
        assert main(["encode", *common, *extra, str(seq), str(cont)]) == 0
        assert main(["decode", *common, str(cont), str(out)]) == 0
        assert out.read_bytes() == seq.read_bytes()
        capsys.readouterr()


class TestRateFitCheckCommands:
    @pytest.mark.parametrize("spec_text, args, bits", [
        (WIDE_SPEC, ["rate", "--n", "700"], 56),
        (WIDE_SPEC, ["rate", "--n", "300"], 56),
        (WIDE_SPEC, ["fit", "--n-grid", "64,128,256"], 56),
        (WIDE_SPEC, ["rate", "--n", "700", "--budget", "1"], 56),
        (DEEP_SPEC, ["rate", "--n", "4"], 77),
        (DEEP_SPEC, ["rate", "--n", "1"], 77),
    ], ids=["rate-700", "rate-300", "fit", "rate-700-over-budget", "deep-entry",
            "deep-entry-n1"])
    def test_point_keys_past_int64_exit_3(self, workdir, capsys, spec_text, args, bits):
        spec = workdir / "keys.spec"
        spec.write_text(spec_text)
        out = workdir / "out"
        assert main([*args, "--spec", str(spec), "--mode", "point", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invariant error: lattice keys n L(x^n) out of int64 range")
        assert err.endswith(f"the largest |L| entry has {bits} bits\n")
        assert not out.exists()

    def test_point_keys_at_255_still_fit(self, workdir, capsys):
        assert main(["rate", "--spec", str(workdir / "wide.spec"), "--mode", "point",
                     "--n", "255"]) == 0

    def test_rate_reproduces_worked_example(self, workdir, capsys):
        # theta_star = 0 for the uniform source of the worked example
        spec = workdir / "uniform.spec"
        spec.write_text("alphabet_size 2\nd 1\ntau 0\ntau 1\nrho_max 3\n")
        assert main(["rate", "--spec", str(spec), "--n", "4",
                     "--epsilon", "0.4"]) == 0
        out = capsys.readouterr().out
        assert " 10" in out and "1.000000" in out

    def test_rate_report_lists_one_result_per_blocklength(self, workdir, capsys):
        outdir = workdir / "rate"
        assert main(["rate", "--spec", str(workdir / "bern.spec"), "--n-grid", "4,8",
                     "--epsilon", "0.4", "--out", str(outdir)]) == 0
        capsys.readouterr()
        spec = parse_spec_text(BERN_SPEC)
        src = SourceSpec(spec.family, spec.theta_star)
        reps = [m_eps(src, build_index(spec.family, "quantized", n), 0.4) for n in (4, 8)]
        assert (outdir / "rate_report.txt").read_text().splitlines() == [
            "tscode-report 1", "command rate", "mode quantized", "epsilon 0.4",
            *(f"result n={r.n} gamma={r.gamma!r} M={r.M} rate={r.rate!r}" for r in reps)]

    def test_rate_prints_M_exactly_at_any_size(self, workdir, capsys):
        # M at binary n = 20000 has over 5,000 digits, past the interpreter's
        # 4,300-digit cap on int-to-decimal conversion
        spec = parse_spec_text(BERN_SPEC)
        M = m_eps(SourceSpec(spec.family, spec.theta_star),
                  build_index(spec.family, "quantized", 20000), 0.1).M
        outdir = workdir / "rate"
        assert main(["rate", "--spec", str(workdir / "bern.spec"), "--n", "20000",
                     "--out", str(outdir)]) == 0
        printed = capsys.readouterr().out.splitlines()[1].split()[-1]
        assert decimal.Decimal(printed) == M and len(printed) > 4300
        report = (outdir / "rate_report.txt").read_text()
        assert f" M={printed} " in report

    def test_huge_enumeration_exits_4_with_a_bounded_count(self, workdir, capsys):
        # C(10^6 + 1499, 1499) compositions: a count of 16,221 bits
        spec = workdir / "wide.spec"
        spec.write_text("alphabet_size 1500\nd 1\n" + "".join(f"tau {i}\n" for i in range(1500))
                        + "rho_max 3\ntheta_star 0.001\n")
        assert main(["rate", "--spec", str(spec), "--n", "1000000"]) == 4
        assert ("composition enumeration requires at least 2^16220 items but the budget is "
                "5000000") in capsys.readouterr().err

    def test_fit_band_and_outputs(self, workdir, capsys):
        outdir = workdir / "fit"
        assert main(["fit", "--spec", str(workdir / "bern.spec"),
                     "--n-grid", "16,32,64,128,256",
                     "--epsilon", "0.1", "--out", str(outdir)]) == 0
        stdout = capsys.readouterr().out
        slope = float(stdout.split("slope")[1].split()[0])
        assert -0.7 <= slope <= -0.3
        svg = (outdir / "fit.svg").read_text()
        assert "slope" in svg and "circle" in svg and "line" in svg
        report = (outdir / "fit_report.txt").read_text()
        assert report.startswith("tscode-report 1\ncommand fit\n")

    def test_fit_deterministic_outputs(self, workdir):
        out1, out2 = workdir / "f1", workdir / "f2"
        for out in (out1, out2):
            assert main(["fit", "--spec", str(workdir / "bern.spec"),
                         "--n-grid", "16,32,64", "--epsilon", "0.1",
                         "--out", str(out)]) == 0
        assert (out1 / "fit.svg").read_bytes() == (out2 / "fit.svg").read_bytes()
        assert (out1 / "fit_report.txt").read_bytes() == \
            (out2 / "fit_report.txt").read_bytes()

    def test_check_reports_gap_and_bound(self, workdir, capsys):
        assert main(["check", "--spec", str(workdir / "bern.spec"),
                     "--n-grid", "8,16", "--s", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "max gap" in out and "bound" in out
        assert "sup deviation" in out

    def test_check_violation_exit_3_after_report(self, workdir, capsys):
        # rho_max 3 clamps the cuboid-center ML at the all-ones composition,
        # which breaks the sandwich bound fitted at n = 8
        outdir = workdir / "chk"
        assert main(["check", "--spec", str(workdir / "bern.spec"),
                     "--n-grid", "8,64", "--s", "2", "--seed", "1",
                     "--out", str(outdir)]) == 3
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out and "invariant error" in captured.err
        report = (outdir / "check_report.txt").read_text()
        assert "n=64" in report
        # the deviation is a plain float, written without a NumPy repr
        assert "normality n=8 dev=0." in report and "np.float64" not in report

    @pytest.mark.parametrize("args", [
        ["rate", "--n", "8"], ["fit", "--n-grid", "8,16,32"], ["check", "--n", "8"],
    ], ids=["rate", "fit", "check"])
    def test_theta_star_outside_ball_is_refused_before_any_index(self, workdir, capsys, args):
        # a budget of 1 refuses every index (exit 4), so exit 3 means none was built
        spec = workdir / "far.spec"
        spec.write_text(FAR_SPEC)
        assert main([*args, "--spec", str(spec), "--budget", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant error: theta norm 5 exceeds rho_max 3\n"

    def test_check_refuses_a_markov_spec(self, workdir, capsys):
        assert main(["check", "--spec", str(workdir / "flip.spec"), "--n-grid", "4,8"]) == 3
        assert "memoryless families only" in capsys.readouterr().err

    def test_check_skips_normality_at_zero_theta_star(self, workdir, capsys):
        spec = workdir / "uniform.spec"
        spec.write_text("alphabet_size 2\nd 1\ntau 0\ntau 1\nrho_max 3\n")
        outdir = workdir / "chk0"
        assert main(["check", "--spec", str(spec), "--n-grid", "8,16", "--s", "2",
                     "--out", str(outdir)]) == 0
        assert "normality check skipped" in capsys.readouterr().out
        assert "normality skipped theta_star=0" in \
            (outdir / "check_report.txt").read_text().splitlines()

    @pytest.mark.parametrize("theta_star", ["1.2", "0"])
    def test_check_refuses_a_negative_seed_before_any_index(self, workdir, monkeypatch,
                                                            capsys, theta_star):
        # a zero theta_star skips the normality section, the only seed reader
        spec = workdir / "seed.spec"
        spec.write_text(f"alphabet_size 2\nd 1\ntau 0\ntau 1\nrho_max 3\ntheta_star {theta_star}\n")

        def fail(*args, **kwargs):
            raise AssertionError("an index was built")

        monkeypatch.setattr("tscode.cli.ml_approx_check", fail)
        assert main(["check", "--spec", str(spec), "--n", "8", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("schema error: invalid configuration:\n"
                                "  --seed must be non-negative, got -1\n")

    def test_runtime_error_exit_3(self, workdir, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise RuntimeError("likelihood approximation gap exceeds its bound")

        monkeypatch.setattr("tscode.cli.ml_approx_check", fail)
        assert main(["check", "--spec", str(workdir / "bern.spec"),
                     "--n-grid", "8,16"]) == 3
        assert "invariant error: likelihood" in capsys.readouterr().err

    def test_rate_markov_mode(self, workdir, capsys):
        assert main(["rate", "--spec", str(workdir / "flip.spec"),
                     "--n-grid", "6,8", "--epsilon", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "64" in out  # M at n=6 keeps all 2^6 paths

    def test_fit_markov_mode_matches_library_fit(self, workdir, capsys):
        ns = (8, 10, 12, 14)
        reports = []
        for out in (workdir / "m1", workdir / "m2"):
            assert main(["fit", "--spec", str(workdir / "flip.spec"),
                         "--n-grid", ",".join(map(str, ns)), "--epsilon", "0.4",
                         "--out", str(out)]) == 0
            assert capsys.readouterr().out.startswith("mode markov  slope ")
            reports.append((out / "fit_report.txt").read_bytes())
            assert (out / "fit.svg").read_bytes() == (workdir / "m1" / "fit.svg").read_bytes()
        assert reports[0] == reports[1]
        spec = parse_spec_text(FLIP_SPEC)
        rep = third_order_fit(SourceSpec(spec.markov, spec.theta_star), ns, 0.4, mode="markov")
        lines = reports[0].decode().splitlines()
        assert "mode markov" in lines and f"slope {rep.slope!r}" in lines
        assert [line for line in lines if line.startswith("point ")] == [
            f"point n={n} rate={rate!r} excess={y!r} residual={resid!r}"
            for (n, rate, y), resid in zip(rep.points, rep.residuals)]

    def test_fit_point_mode(self, workdir, capsys):
        assert main(["fit", "--spec", str(workdir / "sqrt2.spec"),
                     "--mode", "point", "--n-grid", "16,32,64",
                     "--epsilon", "0.1"]) == 0
        assert "mode point" in capsys.readouterr().out

    def test_config_problems_reported_together(self, workdir, capsys):
        code = main(["rate", "--spec", str(workdir / "bern.spec"),
                     "--epsilon", "1.5", "--s", "-1", "--anchor", "abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert "epsilon" in err and "s must be positive" in err and "blocklength" in err
        assert "anchor must be comma-separated finite reals, got 'abc'" in err
        # options well formed but wrong for the spec or the command are reported too
        assert main(["rate", "--spec", str(workdir / "tern.spec"), "--anchor", "1,2,3",
                     "--n", "6", "--epsilon", "2", "--budget", "0"]) == 2
        err = capsys.readouterr().err
        assert "anchor has length 3, expected d=2" in err and "epsilon must be in" in err
        assert "--budget must be positive, got 0" in err
        assert main(["fit", "--spec", str(workdir / "flip.spec"), "--anchor", "0.5,0",
                     "--n-grid", "8,16"]) == 2
        err = capsys.readouterr().err
        assert "anchor has length 2, expected d=1" in err
        assert "--n-grid needs at least 3 blocklengths" in err
        seq = workdir / "seq.txt"
        seq.write_text("1 3 2\n")
        assert main(["encode", "--spec", str(workdir / "tern.spec"), "--anchor", "0.5",
                     str(seq), str(workdir / "x.tsz")]) == 2
        assert "schema error: invalid configuration:\n  anchor has length 1, expected d=2" \
            in capsys.readouterr().err
        assert not (workdir / "x.tsz").exists()

    def test_malformed_n_grid_is_not_also_reported_missing(self, workdir, capsys):
        assert main(["rate", "--spec", str(workdir / "bern.spec"), "--n-grid", "4,,8"]) == 2
        err = capsys.readouterr().err
        assert "--n-grid must be comma-separated integers" in err and "required" not in err


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in make_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


# 34 option slots: validate 1, encode 5, decode 3, rate 9, fit 8, check 8
@pytest.mark.parametrize("command, options, dropped", [
    ("validate", {"--spec"}, ["--n", "4"]),
    ("encode", {"--spec", "--mode", "--s", "--anchor", "--budget"}, ["--epsilon", "0.5"]),
    ("decode", {"--spec", "--mode", "--budget"}, ["--s", "2"]),
    ("rate", {"--spec", "--mode", "--s", "--anchor", "--n", "--n-grid", "--epsilon", "--budget",
              "--out"}, ["--seed", "3"]),
    ("fit", {"--spec", "--mode", "--s", "--anchor", "--n-grid", "--epsilon", "--budget",
             "--out"}, ["--n", "8"]),
    ("check", {"--spec", "--s", "--anchor", "--n", "--n-grid", "--seed", "--budget", "--out"},
     ["--epsilon", "0.2"]),
])
def test_each_command_takes_only_the_options_it_reads(workdir, capsys, command, options,
                                                       dropped):
    assert _options(_subparsers()[command]) == options
    # no command takes a per-mode budget flag
    for flags in (dropped, ["--budget-compositions", "1"], ["--budget-paths", "1"]):
        argv = [command, "--spec", str(workdir / "bern.spec"), *flags]
        if command in ("encode", "decode"):
            argv += [str(workdir / "in"), str(workdir / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


def test_readme_options_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, flags=re.MULTILINE)
    parsers = _subparsers()
    documented = {cmd: set(re.findall(r"`(--[\w-]+)`", text))
                  for cmd, text in rows if cmd in parsers}
    assert documented == {cmd: _options(p) for cmd, p in parsers.items()}


def test_cli_import_does_not_load_scipy():
    code = "import sys, tscode.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True)
