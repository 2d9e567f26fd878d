"""tools/same_outputs.py: the per-file summary under a DIFFERS line."""

import importlib.util
from pathlib import Path

import numpy as np

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
