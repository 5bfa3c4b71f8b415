"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with -v (or -s) to see the per-criterion lines; each test asserts its
criterion so the suite fails loudly on any regression.
"""

import itertools
import math
import sys
import time

import numpy as np
from scipy import special

from octagon_branches import (BRANCH_ANCHORS, build_rank2_pair, hull_octagon,
                              octagon_area_branch, octagon_coefficients,
                              spherical_to_cartesian4)
from cubeshadow import functionals, geometry, moments, quad, specfun

PI = math.pi


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_closed_form_table_n4():
    t = moments.closed_form_table(4)
    tol = 1e-12
    ok = (abs(t.e_vl - 1.697652726313550) < tol
          and abs(t.e_vl2 - 2.909859317102744) < tol
          and abs(t.e_ar - 8.0) < tol
          and abs(t.e_mw2 - 2.883026903647544) < tol)
    report(1, ok, "n=4 closed-form moments exact to 1e-12")


def test_criterion_02_zeta4_quadrature():
    start = time.perf_counter()
    value = quad.zeta4_quadrature()
    elapsed = time.perf_counter() - start
    ok = abs(value - 7.118558716719735) < 1e-9 and elapsed < 5.0
    report(2, ok, f"zeta4 = {value:.15f} in {elapsed:.2f}s")


def test_criterion_03_e_ar2(zeta4):
    value = 12.0 + 6.0 * zeta4 + 3.0 * PI
    ok = abs(value - 64.136130261087789) < 1e-8
    report(3, ok, f"E(ar^2) = {value:.15f}")


def test_criterion_04_pi_over_128():
    suite = quad.pi_over_128_suite()
    target = moments.CONSTANT_TARGETS
    ok = (abs(suite.combination - target["pi128_combination"]()) < 1e-10
          and abs(suite.first.value - target["pi128_first"]()) < 1e-10
          and abs(suite.third.value - target["pi128_third"]()) < 1e-10)
    report(4, ok, f"combination = {suite.combination:.15f} vs pi/128")


def test_criterion_05_zeta3_two_routes(zeta4):
    via_3f2 = quad.zeta3_3f2()
    via_integral = quad.zeta3_quadrature()
    ok = (abs(via_3f2 - via_integral) < 1e-8
          and abs(via_3f2 - zeta4) < 1e-8
          and abs(via_integral - zeta4) < 1e-8)
    report(5, ok, f"zeta3 routes {via_3f2:.12f} / {via_integral:.12f} vs zeta4")


def test_criterion_06_zeta5_reduction(zeta4):
    value = quad.zeta5_reduction_check()
    ok = abs(value - zeta4) < 1e-9
    report(6, ok, f"zeta5 reduction = {value:.15f}")


def test_criterion_07_lower_dim_analogs(moment_suite):
    mw2_3 = moments.closed_form_table(3).e_mw2
    mw2_5 = moments.closed_form_table(5).e_mw2
    numeric_5 = moment_suite["e_mw2_5cube"].value
    ok = (abs(mw2_3 - 2.253091059149751) < 1e-10
          and abs(mw2_5 - 3.516040901689803) < 1e-9
          and abs(numeric_5 - 3.516040901689803) < 1e-9)
    report(7, ok, f"E(mw^2) analogs {mw2_3:.15f}, {mw2_5:.15f}")


def test_criterion_08_joint_moments():
    j = moments.joint_table(4)
    tol = 1e-10
    # correlations agree with the 3-decimal printed values (truncated)
    ok = (abs(j["e_vl_ar"] - 13.639437268410976) < tol
          and abs(j["e_vl_mw"] - 2.886619772367581) < tol
          and abs(j["e_ar_mw"] - 13.592597187518807) < tol
          and math.floor(j["corr_vl_ar"] * 1000) == 945
          and math.floor(j["corr_vl_mw"] * 1000) == 870
          and math.floor(j["corr_ar_mw"] * 1000) == 973)
    report(8, ok, "joint moments to 1e-10; correlations 0.945/0.870/0.973")


def test_criterion_09_hull_cross_check():
    start = time.perf_counter()
    max_dev, rate = moments.hull_cross_check(1000, seed=11)
    elapsed = time.perf_counter() - start
    ok = max_dev < 1e-9 and rate == 1.0 and elapsed < 30.0
    report(9, ok, f"1000 hulls: max dev {max_dev:.2e}, rate {rate:.3f}, "
                  f"{elapsed:.1f}s")


def test_criterion_10_monte_carlo_moments():
    start = time.perf_counter()
    mc = moments.mc_estimate(4, 1_000_000, seed=25)
    elapsed = time.perf_counter() - start
    targets = moments.closed_form_targets(4)
    worst = max(abs(mc.estimates[name][0] - targets[name])
                / mc.estimates[name][1]
                for name in ("vl", "ar", "mw", "vl2", "ar2", "mw2",
                             "vl_ar", "vl_mw", "ar_mw"))
    ok = worst < 4.0 and elapsed < 60.0
    report(10, ok, f"nine moments, worst |z| = {worst:.2f}, {elapsed:.1f}s")


def test_criterion_11_octagon(octagon_1e6):
    mean = octagon_1e6.estimates["perimeter2"][0]
    ok = abs(mean - 28.495) < 0.02

    rng = geometry.stream(41)
    for _ in range(1000):
        u = geometry.sample_unit_vector(4, rng)
        v = geometry.sample_unit_vector(4, rng)
        v = v - np.dot(v, u) * u
        v /= np.linalg.norm(v)
        _, per = hull_octagon(u, v)
        ok = ok and abs(per - functionals.octagon_perimeter(u, v)) < 1e-9

    for branch, anchor in BRANCH_ANCHORS.items():
        for probe in range(101):
            angles = np.asarray(anchor, dtype=float)
            if probe:
                delta = rng.uniform(-1.0, 1.0, 5)
                angles += delta * rng.uniform(0.0, 0.005) / np.linalg.norm(delta)
            u = spherical_to_cartesian4(*angles[:3])
            v = build_rank2_pair(u, angles[3], angles[4])
            value = octagon_area_branch(branch, octagon_coefficients(u, v))
            oracle = hull_octagon(u, v)[0]
            ok = ok and abs(value - oracle) < 1e-9
    report(11, ok, f"E(per^2) = {mean:.4f}; perimeter and all six area "
                   f"branches match the hull oracle")


# Each bounded quantity's analytic range (lo, hi), and the bounds on the
# approach gaps of a run of 10^6 samples at its two ends: obs_lo - lo and
# hi - obs_hi.  A gap exceeds its bound only when no sample comes within it,
# with probability (1 - F(bound))^N, F the law of one sample's distance to
# that end.  `tools/extreme_gaps.py` fitted F on 200 runs fixed before the
# run, seeds 1001-1200 (2 10^8 samples per quantity), and set each bound at
# a false-failure probability of 1e-6 (rounded up to 3 digits).  The fitted
# law predicts each end's median gap within 7% of the 200 observed ones,
# and its exponents, F(g) ~ c g^alpha, are those of the local geometry:
# 3.07-3.09 at the minima of vl, ar and mw (a cone in 3 dimensions), 1.46
# at their maxima (a smooth maximum), 4.05-4.06 at the octagon's minima
# (a cone on S^2 x S^2).  A fit on another 200 seeds moves a bound by up
# to 2%.
EXTREMES = {
    "vl": ((1.0, 2.0), (0.0302, 0.00027)),
    "ar": ((6.0, 6.0 * math.sqrt(2.0)), (0.0964, 0.00038)),
    "mw": ((1.5, math.sqrt(3.0)), (0.0103, 2.59e-5)),
    "perimeter": ((4.0, 4.0 * math.sqrt(2.0)), (0.144, 0.000116)),
    "area": ((1.0, 1.0 + math.sqrt(2.0)), (0.0910, 0.00186)),
}


def approach_gaps(observed: dict) -> tuple[bool, dict]:
    """Whether every observed (min, max) lies in its range within 1e-9, and
    per end of each range, its approach gap over its bound."""
    in_range, ratios = True, {}
    for name, ((lo, hi), (lo_bound, hi_bound)) in EXTREMES.items():
        obs_lo, obs_hi = observed[name]
        in_range = in_range and lo - 1e-9 <= obs_lo and obs_hi <= hi + 1e-9
        ratios[name + "_min"] = (obs_lo - lo) / lo_bound
        ratios[name + "_max"] = (hi - obs_hi) / hi_bound
    return in_range, ratios


def test_criterion_12_extremes(mc_1e6, octagon_1e6):
    in_range, ratios = approach_gaps({**mc_1e6.extremes_observed,
                                      **octagon_1e6.extremes_observed})
    over = [end for end, ratio in ratios.items() if ratio >= 1.0]
    ok = in_range and not over
    report(12, ok, f"extremes inside bounds, approach gaps at most "
                   f"{max(ratios.values()):.2f} of their 1e-6 bounds"
                   + (f", over: {over}" if over else ""))


def extreme_directions(n: int) -> np.ndarray:
    """The unit directions of R^n, n = 4 or the octagon's 3, at which the
    measures reach an extreme: the axes, and at n = 4 the diagonals too.
    The octagon's extremes all lie at planes with x or y on an axis."""
    signs = np.array([(1, *s) for s in itertools.product((1, -1),
                                                         repeat=n - 1)])
    return np.vstack([np.eye(n), signs / 2.0]) if n == 4 else np.eye(n)


def test_criterion_12_power(monkeypatch):
    # The runs of the fixtures, with a sampler that never comes within 0.1
    # of an extreme direction (|u - e| < 0.1 exactly when |u . e| > 0.995):
    # such a direction is replaced by a fixed one far from all of them.
    # Every end of every range must then be over its bound.
    draw = geometry.draw_directions

    def kept_away(rng, out):
        short = draw(rng, out)
        v = out[0]
        n = len(v)
        near = (np.abs(extreme_directions(n) @ v) > 0.995).any(axis=0)
        far = np.arange(1.0, n + 1)
        v[:, near] = (far / np.linalg.norm(far))[:, None]
        return short

    monkeypatch.setattr(geometry, "draw_directions", kept_away)
    _, ratios = approach_gaps({
        **moments.mc_estimate(4, 1_000_000, seed=25).extremes_observed,
        **moments.mc_octagon(1_000_000, seed=214).extremes_observed})
    assert min(ratios.values()) > 1.0, ratios


def test_criterion_13_special_function_identities():
    rng = geometry.stream(42)
    ok = True
    for _ in range(100):
        k = rng.uniform(0.01, 0.99)
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        ka, ea = specfun._ellipk(kp), special.ellipe(k * k)
        kb = specfun._ellipk(math.sqrt((1.0 - kp) * (1.0 + kp)))
        eb = special.ellipe(kp * kp)
        legendre = ea * kb + eb * ka - ka * kb
        ok = ok and abs(legendre - PI / 2.0) < 1e-12
    for _ in range(20):
        p = rng.uniform(-0.4, 1.2)
        q = rng.uniform(-0.4, 1.2)
        c = p + q + rng.uniform(0.6, 2.0)
        if c <= 0 or p <= 0 and p == round(p) or q <= 0 and q == round(q):
            continue
        lhs = specfun.hyp3f2_unit(p, q, 1.5, c, 1.5)
        rhs = (math.gamma(c) * math.gamma(c - p - q)
               / (math.gamma(c - p) * math.gamma(c - q)))
        ok = ok and abs(lhs - rhs) < 1e-11
    report(13, ok, "Legendre relation (100 moduli) and Gauss summation "
                   "(20 triples)")


def test_criterion_14_deterministic_json():
    reports = [
        moments.json_text(
            moments.verify_report(4, 100_000, seed=7, threads=t).as_dict())
        for t in (1, 1, 8)
    ]
    ok = reports[0] == reports[1] == reports[2]
    report(14, ok, "verify JSON byte-identical across runs and thread counts")
