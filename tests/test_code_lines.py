"""tools/code_lines.py: what counts as a line of code."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_do_not_count(tmp_path, capsys):
    module = tmp_path / "mod.py"
    module.write_text('"""Module docstring."""\n'
                      "\n"
                      "# a comment\n"
                      '__all__ = ["f",\n'
                      '           "g"]\n'
                      "\n"
                      "\n"
                      "def f(x):\n"
                      '    """A docstring\n'
                      '    over two lines."""\n'
                      "    return (x +  # a trailing comment\n"
                      "            1)\n")
    # the two lines of __all__, the def and the two lines of the return
    assert code_lines.code_lines(module) == 5
    assert code_lines.public_names(module) == 2
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["mod.py", "5", "total", "5",
                                               "__all__", "names", "2"]
