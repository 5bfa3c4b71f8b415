"""Every function the benchmark's tracer wraps still exists.

`perfbench/child.py` is loaded by path, without running it, and each of its
TARGETS (module, attribute) must resolve in `cubeshadow`: a traced name that
the program loses fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)  # defines TARGETS; main() is not called
    return child.TARGETS


TARGETS = _targets()


def test_targets_are_listed():
    assert len(TARGETS) > 0


@pytest.mark.parametrize("module, attr",
                         [(module, attr) for _, module, attr, _ in TARGETS],
                         ids=[name for name, *_ in TARGETS])
def test_target_resolves(module, attr):
    target = getattr(importlib.import_module("cubeshadow." + module), attr,
                     None)
    assert callable(target), f"cubeshadow.{module}.{attr} is gone"
