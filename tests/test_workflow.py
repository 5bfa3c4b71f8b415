"""Every test id that the CI workflow names still collects.

The `oldest-numpy` job of `.github/workflows/tests.yml` runs a list of test
ids on the oldest numpy and scipy that pyproject.toml allows.  An id there
that a change renames or deletes would fail only in that job; here it
fails with the tier-1 suite.  The workflow is read as text, since PyYAML is
not a dependency.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
IDS = re.findall(r"(?<![\w/])tests/[^\s\"']+", WORKFLOW.read_text())


def test_workflow_test_ids_collect():
    assert IDS, "the workflow names no tests/... id"
    src = str(ROOT / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *IDS],
        cwd=ROOT, timeout=300, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
