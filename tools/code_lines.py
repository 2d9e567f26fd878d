"""Count the lines of code of each module, and the names in their ``__all__``.

    python tools/code_lines.py [DIR]

DIR defaults to ``src/levymv``.  A line counts when it holds a token of
code: blank lines, comments and docstrings (a string that stands alone
as a statement) do not count, and a statement split over several lines
counts each line that holds code.  One line per module is printed, then
the total, then the number of names the modules' ``__all__`` lists hold.
"""

import ast
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# the token before a statement that is a lone string, and the token after it
_STATEMENT_START = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(path):
    """The number of lines of ``path`` that hold code."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type != tokenize.COMMENT]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        docstring = (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
                     and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def public_names(path):
    """The number of names in the module's ``__all__``, 0 without one."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    top = argv[0] if argv else os.path.join(ROOT, "src", "levymv")
    modules = sorted(f for f in os.listdir(top) if f.endswith(".py"))
    counts = {m: code_lines(os.path.join(top, m)) for m in modules}
    for module, n in counts.items():
        print(f"{module:20} {n:5}")
    print(f"{'total':20} {sum(counts.values()):5}")
    print(f"{'__all__ names':20} {sum(public_names(os.path.join(top, m)) for m in modules):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
