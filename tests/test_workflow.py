"""The CI workflow's marker selects the tests it is meant to.

The `oldest-numpy` job of `.github/workflows/tests.yml` runs the tests of
one pytest marker on the oldest numpy and scipy that pyproject.toml allows.
A marker that selects nothing, or not what the job ran when it listed its
tests by id, would show only in that job; here it fails with the tier-1
suite.  The workflow is read as text, since PyYAML is not a dependency.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
MARKERS = re.findall(r"python -m pytest\b.* -m (\w+)", WORKFLOW.read_text())

# The job's selection when it named its tests by id; the marker selects
# exactly the node ids these collect.
LISTED = [
    "tests/test_geometry.py::test_stream_golden_draws",
    "tests/test_geometry.py::test_coordinate_sum_is_numpys_reduce_order",
    "tests/test_geometry.py::test_consecutive_draws_equal_one_draw",
    "tests/test_geometry.py::"
    "test_draw_blocks_is_one_batch_with_deferred_redraws",
    "tests/test_geometry.py::test_sampler_equals_row_major_reference",
    "tests/test_geometry.py::test_complete_pairs_equals_row_major_reference",
    "tests/test_functionals.py::TestOctagonBatch::"
    "test_xy_equals_row_major_reference",
    "tests/test_moments.py::TestMcOctagon::test_matches_chunk_reference",
    "tests/test_moments.py::TestChunkWorkspace",
    "tests/test_moments.py::TestBlockedChunks",
    "tests/test_moments.py::TestHullCrossCheck",
    "tests/test_quad.py",
    "tests/test_specfun.py",
    "tests/test_hull.py",
    "tests/test_hull_properties.py",
    "tests/test_octagon_properties.py",
]


def collected() -> dict[str, set[str]]:
    """The node id of each test under tests/, with the names of its
    markers, from one `pytest --collect-only` run with the `marker_ids`
    plugin."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-qq",
         "-p", "no:cacheprovider", "-p", "marker_ids", "tests"],
        cwd=ROOT, timeout=300, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {node: set(names) for node, *names in
            (line.split("\t") for line in proc.stdout.splitlines()
             if "\t" in line)}


def selected(node: str, arg: str) -> bool:
    """Whether pytest, given arg (a file, or a file and a class or a test),
    collects the test node: arg itself, a test of its class or file, or one
    of its parameter sets."""
    return node == arg or node.startswith((arg + "::", arg + "["))


def test_workflow_test_ids_collect():
    assert MARKERS == ["oldest_numpy"]
    tests = collected()
    marked = sorted(node for node, names in tests.items()
                    if MARKERS[0] in names)
    assert marked
    for arg in LISTED:
        assert any(selected(node, arg) for node in tests), arg
    assert marked == sorted(node for node in tests
                            if any(selected(node, arg) for arg in LISTED))
