"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with -v (or -s) to see the per-criterion lines; each test asserts its
criterion so the suite fails loudly on any regression.
"""

import math
import sys
import time

import numpy as np
import pytest

from cubeshadow import functionals, geometry, hull, moments, quad, specfun

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
    value = quad.zeta4_quadrature.__wrapped__()
    elapsed = time.perf_counter() - start
    ok = abs(value - 7.118558716719735) < 1e-9 and elapsed < 5.0
    report(2, ok, f"zeta4 = {value:.15f} in {elapsed:.2f}s")


def test_criterion_03_e_ar2(zeta4):
    value = 12.0 + 6.0 * zeta4 + 3.0 * PI
    ok = abs(value - 64.136130261087789) < 1e-8
    report(3, ok, f"E(ar^2) = {value:.15f}")


def test_criterion_04_pi_over_128():
    suite = quad.pi_over_128_suite()
    ok = (abs(suite.combination - PI / 128.0) < 1e-10
          and abs(suite.first.value - PI / 96.0) < 1e-10
          and abs(suite.third.value - PI / 192.0) < 1e-10)
    report(4, ok, f"combination = {suite.combination:.15f} vs pi/128")


def test_criterion_05_zeta3_two_routes(zeta4):
    via_3f2 = 3.0 * PI * specfun.hyp3f2_unit(-0.5, 0.5, 1.5, 1.0, 2.0)
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
    numeric_5 = next(e for e in moment_suite if e.name == "e_mw2_5cube")
    ok = (abs(mw2_3 - 2.253091059149751) < 1e-10
          and abs(mw2_5 - 3.516040901689803) < 1e-9
          and abs(numeric_5.numeric.value - 3.516040901689803) < 1e-9)
    report(7, ok, f"E(mw^2) analogs {mw2_3:.15f}, {mw2_5:.15f}")


def test_criterion_08_joint_moments():
    j = moments.joint_moment_table()
    tol = 1e-10
    # correlations agree with the 3-decimal printed values (truncated)
    ok = (abs(j.e_vl_ar - 13.639437268410976) < tol
          and abs(j.e_vl_mw - 2.886619772367581) < tol
          and abs(j.e_ar_mw - 13.592597187518807) < tol
          and math.floor(j.corr_vl_ar * 1000) == 945
          and math.floor(j.corr_vl_mw * 1000) == 870
          and math.floor(j.corr_ar_mw * 1000) == 973)
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
                / mc.estimates[name][1] for name in moments.MOMENT_NAMES)
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
        e, f = functionals.shadow_plane_basis(u, v)
        pts = geometry.cube_vertices(4) @ np.column_stack([e, f])
        _, per = hull.polygon_measures(hull.convex_hull_2d(pts))
        ok = ok and abs(per - functionals.octagon_perimeter(u, v)) < 1e-9

    for branch, anchor in functionals.BRANCH_ANCHORS.items():
        for probe in range(101):
            angles = np.asarray(anchor, dtype=float)
            if probe:
                delta = rng.uniform(-1.0, 1.0, 5)
                angles += delta * rng.uniform(0.0, 0.005) / np.linalg.norm(delta)
            u = geometry.spherical_to_cartesian4(*angles[:3])
            v = geometry.build_rank2_pair(u, angles[3], angles[4])
            value = functionals.octagon_area_branch(
                branch, functionals.octagon_coefficients(u, v))
            ok = ok and abs(value - functionals.octagon_area_oracle(u, v)) < 1e-9
    report(11, ok, f"E(per^2) = {mean:.4f}; perimeter and all six area "
                   f"branches match the hull oracle")


def test_criterion_12_extremes(mc_1e6, octagon_1e6):
    bounds = {
        "vl": (1.0, 2.0),
        "ar": (6.0, 6.0 * math.sqrt(2.0)),
        "mw": (1.5, math.sqrt(3.0)),
        "perimeter": (4.0, 4.0 * math.sqrt(2.0)),
        "area": (1.0, 1.0 + math.sqrt(2.0)),
    }
    observed = dict(mc_1e6.extremes_observed)
    observed.update(octagon_1e6.extremes_observed)
    ok = True
    gaps = []
    for name, (lo, hi) in bounds.items():
        obs_lo, obs_hi = observed[name]
        ok = ok and lo - 1e-9 <= obs_lo and obs_hi <= hi + 1e-9
        gap = max(obs_lo - lo, hi - obs_hi)
        gaps.append(gap)
        ok = ok and gap < 0.02
    report(12, ok, f"extremes inside bounds, worst approach gap "
                   f"{max(gaps):.4f}")


def test_criterion_13_special_function_identities():
    rng = geometry.stream(42)
    ok = True
    for _ in range(100):
        k = rng.uniform(0.01, 0.99)
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        a, b = specfun.elliptic_real(k), specfun.elliptic_real(kp)
        legendre = (a.e_value * b.k_value + b.e_value * a.k_value
                    - a.k_value * b.k_value)
        ok = ok and abs(legendre - PI / 2.0) < 1e-12
    for _ in range(20):
        p = rng.uniform(-0.4, 1.2)
        q = rng.uniform(-0.4, 1.2)
        c = p + q + rng.uniform(0.6, 2.0)
        if c <= 0 or p <= 0 and p == round(p) or q <= 0 and q == round(q):
            continue
        lhs = specfun.hyp3f2_unit(p, q, 1.5, c, 1.5)
        rhs = (specfun.gamma_fn(c) * specfun.gamma_fn(c - p - q)
               / (specfun.gamma_fn(c - p) * specfun.gamma_fn(c - q)))
        ok = ok and abs(lhs - rhs) < 1e-11
    report(13, ok, "Legendre relation (100 moduli) and Gauss summation "
                   "(20 triples)")


def test_criterion_14_deterministic_json():
    reports = [
        moments.verify_report(4, 100_000, seed=7, threads=t).to_json()
        for t in (1, 1, 8)
    ]
    ok = reports[0] == reports[1] == reports[2]
    report(14, ok, "verify JSON byte-identical across runs and thread counts")
