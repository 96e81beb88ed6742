"""Smoke tests for the experiment scripts at small sizes."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_slopes_writes_three_reports_and_charts(tmp_path, capsys):
    out = tmp_path / "slopes"
    assert load_script("run_slopes").main(["--n-grid", "8,16,32", "--out", str(out)]) == 0
    names = ("binary_quantized", "sqrt2_quantized", "sqrt2_point")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{name}.txt" for name in names] + [f"{name}.svg" for name in names])
    for name in names:
        assert (out / f"{name}.txt").read_text().startswith("tscode-report 1\ncommand fit\n")
    assert "point - quantized separation" in capsys.readouterr().out


def test_run_checks_passes(capsys):
    assert load_script("run_checks").main(["--samples", "10000"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" not in out and out.count(" ok\n") == 6

