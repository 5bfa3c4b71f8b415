"""`tools/bench_pairs.py --check` finds each fault of a benchmark record.

The recorded BENCH_*.json files themselves are checked by a CI step.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def broken(record, where):
    """A copy of `record` with one fault put in at `where`."""
    record = copy.deepcopy(record)
    workload = next(iter(record["workloads"].values()))
    if where == "rev":
        record["revs"]["parent"] = ""
    elif where == "correct":
        workload["pairs"][1]["correct"]["change"] = False
    elif where == "median":
        workload["summary"]["wall_rel"]["change"]["median"] *= 0.9
    elif where == "pairs":
        workload["pairs"].pop()
    return record


@pytest.mark.parametrize("where", ["rev", "correct", "median", "pairs"])
def test_check_finds_each_fault(bench_pairs, tmp_path, where):
    record = json.loads((ROOT / "BENCH_mc_workspace.json").read_text())
    path = tmp_path / "BENCH_broken.json"
    path.write_text(json.dumps(broken(record, where)))
    assert bench_pairs.check(path)
    assert bench_pairs.main(["--check", str(path)]) == 1
