#!/usr/bin/env python3
"""Code lines per module of a Python package, and their total.

    python3 scripts/code_lines.py [DIR]

DIR defaults to ``src/hekdv`` next to this script's folder.  A code line
is a line that holds a token: blank lines, comment lines and the lines of
module, class and function docstrings do not count; every line a
multi-line token spans (a string, say) does.  One line per module, in
name order, then the total.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    root = (Path(argv[0]) if argv
            else Path(__file__).resolve().parents[1] / "src" / "hekdv")
    counts = {p.name: code_lines(p.read_text()) for p in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}} {n:>6}")
    print(f"{'total':<{width}} {sum(counts.values()):>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
