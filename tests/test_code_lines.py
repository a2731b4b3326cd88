"""The line count of scripts/code_lines.py, on a made-up source."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = """a multi-line
string value"""

    def f(self):
        """Function docstring,

        on three lines."""
        return (os.sep +
                "b")


async def g():
    "One-line docstring."
    return 1
'''


def test_code_lines_count_token_lines_only():
    # import, class, x = (2 lines), def, return (2 lines), async def, return
    assert code_lines.code_lines(SOURCE) == 9


def test_docstrings_are_found_in_every_scope():
    assert code_lines.docstring_lines(ast.parse(SOURCE)) == {
        1, 2, 10, 16, 17, 18, 24}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "a.py").write_text('"""Doc."""\n')
    code_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "0"], ["b.py", "2"], ["total", "2"]]
