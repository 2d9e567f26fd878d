"""tools/seed_sweep.py: the headroom of a run and the line per preset."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "seed_sweep", Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py")
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)


def test_headroom_is_one_plus_the_tightest_margin_over_its_limit():
    checks = [{"margin": 0.1, "limit": -0.8}, {"margin": 5.0, "limit": 10.0},
              {"margin": -1.0, "limit": 0}]
    # the zero limit has no headroom and is left out
    assert seed_sweep.headroom(checks) == pytest.approx(1.125)
    assert seed_sweep.headroom(checks[2:]) is None


def test_one_line_per_preset(capsys):
    assert seed_sweep.main(["--presets", "AC10", "--seeds", "3", "4"]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("AC10: 2/2 seeds pass; headroom worst ")
