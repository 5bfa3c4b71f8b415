"""Calibrate the bounds on how near a Monte Carlo run comes to each extreme.

    python3 tools/extreme_gaps.py

Run from the root of a checkout, with src on PYTHONPATH.  The quantities
are the bounded ones of `verify --n 4` (vl, ar, mw) and of
`verify --octagon` (perimeter, area); each has two ends, its analytic
minimum and maximum.  The approach gap G of a run of N samples at one end
is the smallest distance D of a sample's value to that end.  G > g exactly
when no sample comes within g, so

    P(G > g) = (1 - F(g))^N <= exp(-N F(g)),

where F is the law of D for one sample: the gap law of a run is fixed by
the lower tail of F.  F is estimated from the samples of the runs at
SEEDS (1001-1200, fixed before the first run; 2 10^8 samples in all at
N = SAMPLES = 10^6, the sample count of the fixtures), drawn from the
streams `mc_estimate(4, N, seed)` and `mc_octagon(N, seed)` read.
The bound at false-failure probability P is the k-th smallest D of the
pool, with k the least count such that k - 5 sqrt(k), a lower confidence
bound (about 3e-7 one-sided) on the pooled count below the bound, is at
least R ln(1/P), R the number of runs: then N F(bound) >= ln(1/P), and a
run's gap exceeds the bound with probability at most P.

Also printed, per end: the exponent alpha of F(g) ~ c g^alpha fitted to the
k smallest D (the Hill estimate), the median gap that the pooled law
predicts against the median of the R observed gaps, and the largest
observed gap.  The output is one JSON object.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cubeshadow import functionals, geometry, moments

# The runs, sample count and false-failure probability behind the bounds of
# acceptance criterion 12 (`tests/test_acceptance.py`).
SEEDS = range(1001, 1201)
SAMPLES = 1_000_000
P = 1e-6


def ends() -> dict:
    """(quantity, "lo" or "hi") -> the analytic extreme."""
    ranges = {**moments.extremes_table(4), **moments.OCTAGON_RANGES}
    return {(q, side): value for q, (lo, hi) in ranges.items()
            for side, value in (("lo", lo), ("hi", hi))}


def chunk_values(seed: int, samples: int):
    """Per chunk of the two runs at `seed`, the dict of their bounded
    quantities, from the same streams and in the same order as
    `mc_estimate(4, samples, seed)` and `mc_octagon(samples, seed)`."""
    for start in range(0, samples, moments.CHUNK):
        m = min(moments.CHUNK, samples - start)
        index = start // moments.CHUNK
        q = functionals.shadow_batch(geometry.sample_unit_vectors(
            4, m, geometry.stream(seed, index)))
        rng = geometry.stream(seed, index)
        x = geometry.sample_unit_vectors(3, m, rng)
        y = geometry.sample_unit_vectors(3, m, rng)
        per, area = functionals.octagon_xy(x, y)
        yield {**q, "perimeter": per, "area": area}


def pool_size(runs: int, p: float) -> int:
    """The least k with k - 5 sqrt(k) >= runs ln(1/p)."""
    need = runs * math.log(1.0 / p)
    k = math.ceil(need)
    while k - 5.0 * math.sqrt(k) < need:
        k += 1
    return k


def smallest(values: np.ndarray, k: int) -> np.ndarray:
    return np.partition(values, k - 1)[:k] if len(values) > k else values


def calibrate(seeds, samples: int, p: float) -> dict:
    k = pool_size(len(seeds), p)
    target = ends()
    pool = {end: np.empty(0) for end in target}
    gaps = {end: [] for end in target}
    for seed in seeds:
        run = {end: [] for end in target}
        for values in chunk_values(seed, samples):
            for (q, side), extreme in target.items():
                d = values[q] - extreme if side == "lo" else extreme - values[q]
                run[q, side].append(smallest(d, k))
        for end, parts in run.items():
            d = np.concatenate(parts)
            gaps[end].append(float(d.min()))
            pool[end] = smallest(np.concatenate([pool[end], d]), k)
    out = {}
    for (q, side), d in pool.items():
        d = np.sort(d)
        bound = float(d[k - 1])
        tail = np.maximum(d[:k - 1], np.finfo(float).tiny)
        median = float(d[math.ceil(len(seeds) * math.log(2.0)) - 1])
        out[f"{q}_{side}"] = {
            "bound": bound,
            "alpha": (k - 1) / float(np.sum(np.log(bound / tail))),
            "median_predicted": median,
            "median_observed": float(np.median(gaps[q, side])),
            "max_observed": max(gaps[q, side]),
        }
    return {"seeds": [seeds[0], seeds[-1]], "runs": len(seeds),
            "samples": samples, "p": p, "pool": k, "ends": out}


def main() -> int:
    print(json.dumps(calibrate(SEEDS, SAMPLES, P), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
