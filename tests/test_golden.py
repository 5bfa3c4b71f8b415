"""Every command of `tools/golden.py`'s matrix writes the bytes committed
under tests/golden: its exit code, stderr and stdout, at one Monte Carlo
worker.  A moved byte fails the test of that command, which names it.

`python3 tools/golden.py --update` rewrites the files; a change that moves
one says so, and bumps `moments.SPEC_VERSION` when a payload moved.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", golden.MATRIX)
def test_command_keeps_its_bytes(name):
    want = golden.path(name).read_bytes()
    assert golden.render(name).encode() == want, (
        f"{golden.command_line(name)} moved from {golden.path(name).name}")


def test_golden_files_are_the_matrix():
    assert sorted(golden.GOLDEN.glob("*.txt")) == sorted(
        map(golden.path, golden.MATRIX))
