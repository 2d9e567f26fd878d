"""tools/same_outputs.py: the per-file summary under a DIFFERS line, and
which runs each run is compared with."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from levymv.exports import KIND_DENSITY, _write_block

_spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_differences_name_each_differing_file_and_its_largest_relative_move(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for tree, value, last in ((base, "0.25", 4.0), (head, "0.25000000000025", 4.000004)):
        tree.mkdir()
        (tree / "table.csv").write_text(f"n,x1\n10,{value}\n20,-3\n")
        (tree / "summary.json").write_text('{"cf_gap_0": 1e-3, "pass": true}\n')
        _write_block(tree / "snapshots.bin", KIND_DENSITY, [0.0, 0.5],
                     np.array([[1.0, 2.0, 3.0], [1.0, 2.0, last]]))
    lines = same_outputs.differences(str(base), str(head))
    assert lines == [
        "snapshots.bin: largest relative difference 1e-06 among 8 numbers "
        "(4.0 at base, 4.000004 here)",
        "table.csv: largest relative difference 1e-12 among 4 numbers "
        "(0.25 at base, 0.25000000000025 here)",
    ]
    assert same_outputs.differences(str(base), str(base)) == []


@pytest.mark.parametrize("value,differing,status", [
    (lambda here, preset, threads: 1.0, [], 0),
    # a numerical change that both thread counts make alike
    (lambda here, preset, threads: 1.5 if here and preset == "AC4" else 1.0,
     ["AC4 --threads 1"], 1),
    # a thread count that moves the bytes, beside outputs equal to the base's
    (lambda here, preset, threads: 2.0 if threads == 3 else 1.0,
     ["AC4 --threads 3", "AC5 --threads 3"], same_outputs.THREADS_DIFFER),
], ids=["identical", "numerical", "threads"])
def test_threads_3_is_compared_with_threads_1_here(monkeypatch, capsys, value, differing,
                                                   status):
    # no export, and each run writes one table.csv holding
    # value(here, preset, threads), here being True for this checkout's runs
    head_src = os.path.join(same_outputs.ROOT, "src")

    def run(src, preset, threads, out, work):
        os.makedirs(out)
        with open(os.path.join(out, "table.csv"), "w") as fh:
            fh.write(f"x\n{value(src == head_src, preset, threads)}\n")
        return 0

    monkeypatch.setattr(same_outputs, "_export", lambda base, tree: None)
    monkeypatch.setattr(same_outputs, "_run", run)
    assert same_outputs.main(["BASE"]) == status
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    runs = [f"AC{k} --threads {t}" for k in range(1, 11) for t in (1, 3)
            if t == 1 or f"AC{k}" in same_outputs.THREADED]
    assert [line.split(":")[0] for line in lines] == runs
    assert [line.split(":")[0] for line in lines if "DIFFERS" in line] == differing
    for line in lines:
        assert f"(exit 0 at {'--threads 1' if '--threads 3' in line else 'BASE'}, 0 here" in line
