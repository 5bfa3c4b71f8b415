"""`tools/code_lines.py` counts code lines as `tokenize` reads them."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""A module docstring
that spans two lines."""

import math  # a trailing comment

# a comment on its own line


def f(x):
    """A function docstring."""
    total = (x
             + math.pi
             + 1)

    return total


class C:
    """A class docstring."""

    text = """a multi-line string
    that is a value, not a docstring"""
    "a bare string statement"
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_only(code_lines):
    # import, def, the three lines of the expression, return, class and
    # the two lines of the string value
    assert code_lines.code_lines(SOURCE) == 9


def test_empty_and_comment_only(code_lines):
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("# only a comment\n\n") == 0
    assert code_lines.code_lines('"""only a docstring"""\n') == 0


def test_per_module_and_total(code_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\ny = [x,\n     2]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")], ["3", str(tmp_path / "b.py")],
        ["12", "total"]]
