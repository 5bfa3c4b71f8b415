"""`tools/extreme_gaps.py` reads the streams of the runs it calibrates.

The bounds it gave are those of `tests/test_acceptance.py::EXTREMES`; a
full calibration (200 runs of 10^6 samples) takes about 80 s, so it is not
run here.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from cubeshadow import moments

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def extreme_gaps():
    spec = importlib.util.spec_from_file_location(
        "extreme_gaps", ROOT / "tools" / "extreme_gaps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_values_are_those_of_the_runs(extreme_gaps):
    # three chunks, the last one short
    samples, seed = 2 * moments.CHUNK + 17, 7
    chunks = list(extreme_gaps.chunk_values(seed, samples))
    observed = {**moments.mc_estimate(4, samples, seed).extremes_observed,
                **moments.mc_octagon(samples, seed).extremes_observed}
    for name, extremes in observed.items():
        values = np.concatenate([chunk[name] for chunk in chunks])
        assert (values.min(), values.max()) == extremes


def test_ends_are_the_analytic_ranges(extreme_gaps):
    ends = extreme_gaps.ends()
    assert ends["vl", "hi"] == 2.0 and ends["perimeter", "lo"] == 4.0
    assert len(ends) == 10


@pytest.mark.parametrize("runs", [1, 3, 200])
def test_pool_is_the_least_count(extreme_gaps, runs):
    need = runs * math.log(1e6)
    k = extreme_gaps.pool_size(runs, 1e-6)
    assert k - 5.0 * math.sqrt(k) >= need > k - 1 - 5.0 * math.sqrt(k - 1)


def test_bound_is_the_pools_kth_smallest(extreme_gaps):
    # one run of 1000 samples: each bound is the k-th smallest distance of
    # the run's values to its end, and the observed gap the smallest
    result = extreme_gaps.calibrate([3], 1000, 1e-6)
    k = result["pool"]
    (values,) = extreme_gaps.chunk_values(3, 1000)
    for (name, side), extreme in extreme_gaps.ends().items():
        d = np.sort(values[name] - extreme if side == "lo"
                    else extreme - values[name])
        end = result["ends"][f"{name}_{side}"]
        assert end["bound"] == d[k - 1]
        assert end["max_observed"] == end["median_observed"] == d[0]
