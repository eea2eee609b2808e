"""scripts/code_lines.py counts lines holding code: blank lines, comments
and docstrings are left out, other strings are code."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment after code counts

# a comment line does not


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function docstring
        over two lines.
        """
        return (1,
                2)
'''


def test_counts_code_and_leaves_out_blanks_comments_and_docstrings():
    # import, class, x (2 lines), def, return (2 lines)
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""only a docstring"""\n') == 0


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    assert [line.split() for line in out if line] == [["7", "a.py"], ["2", "b.py"], ["9", "total"]]
