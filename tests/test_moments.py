import functools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from scipy import integrate, special

import cubeshadow
import hull_reference
import mc_reference
import quad_reference
from zeroed_stream import ZeroedStream
from cubeshadow import functionals, geometry, hull, moments, quad, specfun


class TestClosedFormTables:
    def test_n4_values(self, zeta4):
        t = moments.closed_form_table(4)
        assert t["e_vl"] == pytest.approx(1.697652726313550, abs=1e-14)
        assert t["e_vl"] == pytest.approx(16.0 / (3.0 * math.pi), abs=1e-15)
        assert t["e_vl2"] == pytest.approx(1.0 + 6.0 / math.pi, abs=1e-15)
        assert t["e_ar"] == pytest.approx(8.0, abs=1e-13)
        assert t["e_ar2"] == pytest.approx(64.136130261087789, abs=1e-9)
        assert t["e_ar2"] == pytest.approx(12.0 + 6.0 * zeta4 + 3.0 * math.pi,
                                        abs=1e-12)
        assert t["e_mw"] == t["e_vl"]
        assert t["e_mw2"] == pytest.approx(2.883026903647544, abs=1e-14)

    def test_n3_values(self):
        t = moments.closed_form_table(3)
        assert t["e_vl"] == pytest.approx(1.5, abs=1e-14)
        assert t["e_vl2"] == pytest.approx(1.0 + 4.0 / math.pi, abs=1e-15)
        assert t["e_ar"] == pytest.approx(1.5 * math.pi, abs=1e-13)
        assert t["e_mw2"] == pytest.approx(2.253091059149751, abs=1e-12)

    def test_n5_values(self):
        t = moments.closed_form_table(5)
        assert t["e_mw2"] == pytest.approx(3.516040901689803, abs=1e-12)

    def test_n5_uses_zeta_for_its_first_3f2(self):
        # The table takes 3F2(-1/2, 1/2, 3/2; 1, 2; 1) as ZETA/(3 pi); the
        # quadrature of specfun is the reference, and both round to the
        # same double, so E(mw^2) at n = 5 keeps its bytes.
        f1 = specfun.hyp3f2_unit(-0.5, 0.5, 1.5, 1.0, 2.0)
        assert f1 == pytest.approx(moments.ZETA / (3.0 * math.pi),
                                   rel=1e-15, abs=0.0)
        assert moments.closed_form_table(5)["e_mw2"] == 3.5160409016898035

    def test_e_mw2_absent_above_5(self):
        t = moments.closed_form_table(6)
        assert "e_mw2" not in t

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_duality_e_mw_equals_e_vl(self, n):
        t = moments.closed_form_table(n)
        assert t["e_mw"] == t["e_vl"]

    def test_zeta_sources(self):
        # one zeta for every n, proved; its closed form is identified
        for n in (3, 4, 5, 6, 12):
            t = moments.closed_form_table(n)
            assert t["zeta_used"] == moments.ZETA
            assert "conjectured" not in t["zeta_source"]

    def test_dimension_guard(self):
        with pytest.raises(geometry.DomainError):
            moments.closed_form_table(2)
        with pytest.raises(geometry.DomainError):
            moments.extremes_table(1)


def hyp3f2_unit_series(uppers, lowers):
    """3F2(uppers; lowers; 1) at mpmath's working precision.  The series
    converges like k^(sum(uppers) - sum(lowers) - 1); Levin's
    transformation sums it to working precision."""
    def term(k):
        k = int(k)
        return (math.prod(mpmath.rf(a, k) for a in uppers)
                / (math.prod(mpmath.rf(b, k) for b in lowers)
                   * mpmath.factorial(k)))

    return mpmath.nsum(term, [0, mpmath.inf], method="levin")


class TestZeta:
    """The closed form ZETA = Gamma(1/4)^4/(4 pi^2) + 48 pi^2/Gamma(1/4)^4
    against every other route to the paper's constant."""

    def test_correctly_rounded(self):
        assert moments.ZETA == 7.118558716719735

    @pytest.mark.parametrize("route", [
        quad.zeta3_3f2,
        quad.zeta3_quadrature,
        quad.zeta4_quadrature,
        quad_reference.zeta4_quadrature_psi_form,
        quad.zeta5_reduction_check,
    ], ids=["3f2", "zeta3", "zeta4", "zeta4_psi", "zeta5"])
    def test_routes(self, route):
        assert route() == pytest.approx(moments.ZETA, rel=1e-14, abs=0.0)

    def test_gamma_form_equals_3f2_to_100_digits(self):
        with mpmath.workdps(110):
            g4 = mpmath.gamma(mpmath.mpf(1) / 4) ** 4
            pi = mpmath.pi
            gamma_form = g4 / (4 * pi**2) + 48 * pi**2 / g4
            series = 3 * pi * hyp3f2_unit_series((-0.5, 0.5, 1.5), (1, 2))
            assert abs(gamma_form - series) < mpmath.mpf(10) ** -100
            assert float(gamma_form) == moments.ZETA

    def test_n4_correlations_to_30_digits(self):
        # Var(ar) = E(ar^2) - 64 cancels, so a zeta off in the last bits
        # shows up here (the quadrature value gave 5e-13).
        j = moments.joint_table(4)
        assert j["corr_vl_ar"] == pytest.approx(0.94573393098931309, rel=1e-13)
        assert j["corr_ar_mw"] == pytest.approx(0.97392972997608259, rel=1e-13)


class TestZetaProofChain:
    """The four links from zeta = 3 pi 3F2(-1/2, 1/2, 3/2; 1, 2; 1) to
    4 K0^2/pi + 3 pi/K0^2, K0 = K(1/sqrt 2), of the zeta comment in
    `moments`.  With k' = sqrt(1 - k^2), E = E(k) and K = K(k), each
    integral over k in [0, 1] is taken with k = sin(theta), and K as
    pi/(2 agm(1, k')), whose k' = cos(theta) stays exact where k rounds
    to 1.  Link 4 is checked, not derived."""

    TOL = mpmath.mpf(10) ** -30

    @staticmethod
    def integral(f):
        """int_0^1 f(k, k', K, E) dk / k' at 50 digits."""
        def g(theta):
            k, kc = mpmath.sin(theta), mpmath.cos(theta)
            return f(k, kc, mpmath.pi / (2 * mpmath.agm(1, kc)),
                     mpmath.ellipe(k * k))

        return mpmath.quad(g, [0, mpmath.pi / 2])

    @pytest.fixture
    def k0(self):
        """K0 = Gamma(1/4)^2/(4 sqrt pi), with mpmath at 50 digits for the
        test."""
        with mpmath.workdps(50):
            yield (mpmath.gamma(mpmath.mpf(1) / 4) ** 2
                   / (4 * mpmath.sqrt(mpmath.pi)))

    def test_k0_is_the_singular_value(self, k0):
        assert abs(k0 - mpmath.ellipk(mpmath.mpf(1) / 2)) < self.TOL

    def test_link_1_euler_integral(self, k0):
        # 3F2(-1/2, 1/2, 3/2; 1, 2; 1) = (8/pi^2) int k^2 E/k' dk
        series = hyp3f2_unit_series((-0.5, 0.5, 1.5), (1, 2))
        euler = 8 / mpmath.pi**2 * self.integral(lambda k, kc, K, E: k * k * E)
        assert abs(series - euler) < self.TOL

    def test_link_2_antiderivative(self):
        # d/dk [k k' (E + K)/3] = k' E - K/(3 k'), in sympy's parameter
        # m = k^2 and with its own derivatives of E(m) and K(m)
        k = sympy.symbols("k", positive=True)
        kc = sympy.sqrt(1 - k**2)
        E, K = sympy.elliptic_e(k**2), sympy.elliptic_k(k**2)
        difference = (sympy.diff(k * kc * (E + K) / 3, k)
                      - (kc * E - K / (3 * kc)))
        assert sympy.simplify(difference) == 0

    def test_link_2_integrated(self, k0):
        # the bracket vanishes at both ends, so int k' E = (1/3) int K/k'
        k_prime_e = self.integral(lambda k, kc, K, E: kc * kc * E)
        k_over_k_prime = self.integral(lambda k, kc, K, E: K)
        assert abs(k_prime_e - k_over_k_prime / 3) < self.TOL

    def test_link_3_dixon(self, k0):
        # int K/k' dk = (pi^2/4) 3F2(1/2, 1/2, 1/2; 1, 1; 1) = K0^2
        integral = self.integral(lambda k, kc, K, E: K)
        series = mpmath.pi**2 / 4 * hyp3f2_unit_series((0.5, 0.5, 0.5), (1, 1))
        assert abs(integral - k0**2) < self.TOL
        assert abs(series - k0**2) < self.TOL

    def test_link_4_identified(self, k0):
        # int E/k' dk = (pi^2/4) 3F2(-1/2, 1/2, 1/2; 1, 1; 1)
        # = K0^2/2 + pi^2/(8 K0^2) = E0^2 + (K0 - E0)^2, E0 = E(1/sqrt 2)
        pi = mpmath.pi
        e0 = mpmath.ellipe(mpmath.mpf(1) / 2)
        integral = self.integral(lambda k, kc, K, E: E)
        series = pi**2 / 4 * hyp3f2_unit_series((-0.5, 0.5, 0.5), (1, 1))
        for value in (series, e0**2 + (k0 - e0) ** 2):
            assert abs(integral - value) < self.TOL
        assert abs(integral - (k0**2 / 2 + pi**2 / (8 * k0**2))) < self.TOL

    def test_final_algebra(self, k0):
        # zeta = (24/pi) [int E/k' - (1/3) int K/k'], and links 3 and 4
        # make that 4 K0^2/pi + 3 pi/K0^2
        x, pi = sympy.symbols("K0", positive=True), sympy.pi
        chain = 24 / pi * (x**2 / 2 + pi**2 / (8 * x**2) - x**2 / 3)
        assert sympy.simplify(chain - (4 * x**2 / pi + 3 * pi / x**2)) == 0
        pi = mpmath.pi
        zeta = 24 / pi * (self.integral(lambda k, kc, K, E: E)
                          - self.integral(lambda k, kc, K, E: K) / 3)
        series = 3 * pi * hyp3f2_unit_series((-0.5, 0.5, 1.5), (1, 2))
        for value in (series, 4 * k0**2 / pi + 3 * pi / k0**2):
            assert abs(zeta - value) < self.TOL


class TestExtremes:
    def test_n4_table(self):
        ext = moments.extremes_table(4)
        assert ext["vl"] == pytest.approx((1.0, 2.0))
        assert ext["ar"] == pytest.approx((6.0, 6.0 * math.sqrt(2.0)))
        assert ext["mw"] == pytest.approx((1.5, math.sqrt(3.0)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cross_level_identity(self, n):
        # mean width averaged one level down equals the axis-direction
        # minimum one level up
        t = moments.closed_form_table(n)
        assert t["e_mw"] == pytest.approx(
            moments.extremes_table(n + 1)["mw"][0], abs=1e-14)


class TestJointMoments:
    def test_values(self):
        j = moments.joint_table(4)
        assert j["e_vl_ar"] == pytest.approx(13.639437268410976, abs=1e-14)
        assert j["e_vl_mw"] == pytest.approx(2.886619772367581, abs=1e-14)
        assert j["e_ar_mw"] == pytest.approx(13.592597187518807, abs=1e-12)

    def test_correlations(self):
        # printed references are truncated to 3 decimals (trailing ellipsis)
        j = moments.joint_table(4)
        assert math.floor(j["corr_vl_ar"] * 1000) == 945
        assert math.floor(j["corr_vl_mw"] * 1000) == 870
        assert math.floor(j["corr_ar_mw"] * 1000) == 973
        for r in (j["corr_vl_ar"], j["corr_vl_mw"], j["corr_ar_mw"]):
            assert 0.0 < r < 1.0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_exist_only_at_n4(self, n):
        joint = moments.joint_table(n)
        targets = moments.closed_form_targets(n)
        if n == 4:
            assert list(joint) == ["e_vl_ar", "e_vl_mw", "e_ar_mw",
                                   "corr_vl_ar", "corr_vl_mw", "corr_ar_mw"]
            assert [joint["e_vl_ar"], joint["e_vl_mw"], joint["e_ar_mw"]] == [
                targets["vl_ar"], targets["vl_mw"], targets["ar_mw"]]
            assert list(targets) == ["vl", "ar", "mw", "vl2", "ar2", "mw2",
                                     "vl_ar", "vl_mw", "ar_mw"]
        else:
            assert joint == {}
            assert not {"vl_ar", "vl_mw", "ar_mw"} & set(targets)


class TestMonteCarlo:
    def test_determinism_same_seed(self):
        a = moments.mc_estimate(4, 70_000, seed=7)
        b = moments.mc_estimate(4, 70_000, seed=7)
        assert a.estimates == b.estimates
        assert a.extremes_observed == b.extremes_observed

    def test_determinism_across_threads(self):
        a = moments.mc_estimate(4, 200_000, seed=7, threads=1)
        b = moments.mc_estimate(4, 200_000, seed=7, threads=4)
        assert a.estimates == b.estimates
        assert a.extremes_observed == b.extremes_observed

    @pytest.mark.parametrize("run", [
        lambda: moments.mc_estimate(4, 10, seed=1, threads=0),
        lambda: moments.mc_octagon(10, seed=1, threads=-1),
    ], ids=["mc_estimate", "mc_octagon"])
    def test_threads_below_one_raise(self, run):
        with pytest.raises(geometry.DomainError, match="threads must be >= 1"):
            run()

    def test_n12_bytes_across_threads(self):
        samples = 3 * moments.CHUNK + 17
        a = moments.mc_estimate(12, samples, seed=5, threads=1)
        b = moments.mc_estimate(12, samples, seed=5, threads=3)
        assert a.estimates == b.estimates
        assert a.extremes_observed == b.extremes_observed

    def test_seed_changes_output(self):
        a = moments.mc_estimate(4, 70_000, seed=7)
        b = moments.mc_estimate(4, 70_000, seed=8)
        assert a.estimates["vl"] != b.estimates["vl"]

    def test_all_moments_within_4_sigma(self, mc_1e6):
        targets = moments.closed_form_targets(4)
        for name, target in targets.items():
            mean, stderr = mc_1e6.estimates[name]
            assert abs(mean - target) < 4.0 * stderr, name

    def test_extremes_within_bounds(self, mc_1e6):
        ext = moments.extremes_table(4)
        for q in ("vl", "ar", "mw"):
            lo, hi = mc_1e6.extremes_observed[q]
            assert ext[q][0] - 1e-9 <= lo <= hi <= ext[q][1] + 1e-9

    def test_n6_ar2_closed_form(self, zeta4):
        mc = moments.mc_estimate(6, 400_000, seed=3)
        target = 20.0 + 20.0 * zeta4 + 30.0 * math.pi
        mean, stderr = mc.estimates["ar2"]
        assert abs(mean - target) < 4.0 * stderr

    def test_sample_guard(self):
        with pytest.raises(geometry.DomainError):
            moments.mc_estimate(4, 0, seed=1)
        with pytest.raises(geometry.DomainError):
            moments.mc_octagon(0, seed=1)


class TwoArgs(Exception):
    """Pickles as its message alone, so it does not unpickle."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """More than one worker runs the chunks in forked processes."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The number of os.fork calls of each `_parallel` call.  Each child
        exits at once, so its worker is lost and its tasks run in the
        caller."""
        counts = []
        fork, parallel = os.fork, moments._parallel

        def spy():
            counts[-1] += 1
            pid = fork()
            if pid == 0:
                os._exit(1)
            return pid

        def counted(tasks, threads):
            counts.append(0)
            return parallel(tasks, threads)

        monkeypatch.setattr(os, "fork", spy)
        monkeypatch.setattr(moments, "_parallel", counted)
        return counts

    def test_pool_is_bounded_by_the_chunks(self, forks):
        # 10^6 samples are 16 chunks
        moments.mc_estimate(4, 1_000_000, seed=1, threads=1000)
        moments.mc_octagon(2 * moments.CHUNK + 1, seed=1, threads=1000)
        assert forks == [16, 3]
        assert_no_child()

    def test_one_chunk_forks_nothing(self, forks):
        moments.mc_estimate(4, moments.CHUNK, seed=1, threads=1000)
        moments.mc_octagon(10, seed=1, threads=1000)
        assert forks == [0, 0]

    def test_hull_pool_is_bounded_by_the_blocks(self, forks):
        # 1000 hulls are 4 blocks of 250
        moments.hull_cross_check(1000, seed=1, threads=1000)
        assert forks == [4]
        assert_no_child()

    def test_one_hull_block_forks_nothing(self, forks, monkeypatch):
        monkeypatch.setattr(moments, "HULL_SAMPLES", moments.HULL_BLOCK)
        moments.hull_cross_check(moments.HULL_BLOCK, seed=1, threads=1000)
        moments.octagon_report(10, seed=1, threads=1000)
        assert forks == [0, 0, 0]

    def test_a_killed_worker_runs_its_tasks_in_the_caller(self):
        parent = os.getpid()

        def task(i):
            if i == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return i * i

        tasks = [functools.partial(task, i) for i in range(5)]
        assert moments._parallel(tasks, 2) == moments._parallel(tasks, 1)
        assert_no_child()

    @pytest.mark.parametrize("error", [
        ValueError("holds a lambda", lambda: None),  # does not pickle
        TwoArgs("does not", "unpickle"),
    ], ids=["lambda", "two_args"])
    def test_an_exception_that_does_not_cross_raises_as_itself(self, error):
        def fail():
            raise error

        with pytest.raises(type(error)) as exc:
            moments._parallel([lambda: 0, fail, lambda: 2], 2)
        assert str(exc.value) == str(error)
        assert_no_child()

    def test_hull_blocks_on_two_workers_equal_one(self, hull_check_1e3):
        assert moments.hull_cross_check(1000, seed=11, threads=2) == \
            hull_check_1e3

    def test_first_failing_block_raises(self, monkeypatch):
        # 6 hulls in blocks of 4 and 2, each flattened at its second hull;
        # the first block ends last, and its error is still the one raised
        project = geometry.project_vertices

        def flatten_second_of_each_block(rows):
            clouds = project(rows)
            clouds[1, :, 2] = 0.0
            if len(clouds) == 4:
                time.sleep(0.3)
            return clouds

        monkeypatch.setattr(moments, "HULL_BLOCK", 4)
        monkeypatch.setattr(geometry, "project_vertices",
                            flatten_second_of_each_block)
        for threads in (1, 2):
            with pytest.raises(hull.FlatInputError) as exc:
                moments.hull_cross_check(6, seed=3, threads=threads)
            assert exc.value.index == 1
        assert_no_child()

    def test_kernel_error_surfaces_in_the_parent(self, monkeypatch):
        def kernel(*args, **kwargs):
            raise ZeroDivisionError("kernel fault")

        monkeypatch.setattr(functionals, "shadow_batch", kernel)
        with pytest.raises(ZeroDivisionError, match="kernel fault"):
            moments.verify_report(5, 3 * moments.CHUNK, seed=1, threads=2)
        assert_no_child()

    def test_no_worker_outlives_verify(self):
        moments.verify_report(4, 3 * moments.CHUNK, seed=1, threads=2)
        moments.verify_report(5, 3 * moments.CHUNK, seed=1, threads=2)
        moments.octagon_report(3 * moments.CHUNK, seed=1, threads=3)
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_chunk_placement_restores_the_cpu_mask(self):
        # _in_worker moves the worker to a CPU of its own and then restores
        # the mask; a task still runs, and no pin outlives the move
        mask = os.sched_getaffinity(0)
        tasks = [functools.partial(lambda i: (i, os.sched_getaffinity(0)), i)
                 for i in range(8)]
        assert moments._in_worker(1, 3, tasks) == [
            (i, False, (i, mask)) for i in (1, 4, 7)]
        assert os.sched_getaffinity(0) == mask

    def test_fork_of_a_threaded_process_warns_nothing(self):
        # Python 3.12+ warns at each fork of a multi-threaded process, from
        # os.fork, which then clears the warning: an "error" filter turns
        # it into nothing, so the warnings are recorded instead.
        stop = threading.Event()
        sleeper = threading.Thread(target=stop.wait, args=(60,))
        sleeper.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = moments.mc_estimate(4, 3 * moments.CHUNK, 1, threads=2)
        finally:
            stop.set()
            sleeper.join(timeout=60)
        assert not sleeper.is_alive()
        assert [str(w.message) for w in caught] == []
        assert got == moments.mc_estimate(4, 3 * moments.CHUNK, 1)


def hypot_kernel_reference(x, coeff):
    """The batch kernel as it was: one strided np.hypot per pair, and the
    mean width from sqrt(1 - u_j^2)."""
    n = x.shape[1]
    ar = np.zeros(len(x))
    for j in range(n):
        for k in range(j + 1, n):
            ar += np.hypot(x[:, j], x[:, k])
    mw = coeff * np.sqrt(np.clip(1.0 - x * x, 0.0, None)).sum(axis=1)
    return {"vl": np.abs(x).sum(axis=1), "ar": 2.0 * ar, "mw": mw}


def scalar_volume(u):
    """sum_j |u_j|, one direction at a time."""
    return float(np.sum(np.abs(u)))


def scalar_area(u):
    """2 sum_{j<k} hypot(u_j, u_k), one direction at a time."""
    n = len(u)
    return 2.0 * sum(math.hypot(u[j], u[k])
                     for j in range(n) for k in range(j + 1, n))


def scalar_mean_width(u):
    """c_{n-1} sum_j sqrt of the sum of the other squares, as a matrix
    product (1 - I) u^2."""
    n = len(u)
    return functionals.segment_mw_coeff(n - 1) * float(
        np.sum(np.sqrt((1.0 - np.eye(n)) @ (u * u))))


def special_directions(n):
    """Zeros, repeated coordinates and |u_j| -> 1, normalised."""
    rows = [np.eye(n)[0], np.ones(n), np.r_[1.0, 1.0, np.zeros(n - 2)],
            np.r_[np.full(n - 1, 0.3), 0.0], np.r_[2.0, 2.0, np.ones(n - 2)]]
    for eps in (1e-4, 1e-8, 1e-12, 1e-100):
        rows.append(np.r_[1.0, np.full(n - 1, eps)])
        rows.append(np.r_[np.full(n - 1, -eps), -1.0])
        rows.append(np.r_[1.0, eps, np.zeros(n - 2)])
    x = np.array(rows)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestShadowKernel:
    @pytest.mark.parametrize("n", [3, 4, 6, 12])
    def test_matches_scalar_functionals(self, n):
        # against the scalar loops the kernel replaced, kept as references
        rng = geometry.stream(17, n)
        x = np.vstack([geometry.sample_unit_vectors(n, 200, rng).T,
                       special_directions(n)])
        with np.errstate(all="raise"):
            q = functionals.shadow_batch(x.T)
            for i, u in enumerate(x):
                assert q["vl"][i] == pytest.approx(
                    scalar_volume(u), rel=1e-14, abs=0.0)
                assert q["ar"][i] == pytest.approx(
                    scalar_area(u), rel=1e-14, abs=0.0)
                assert q["mw"][i] == pytest.approx(
                    scalar_mean_width(u), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [3, 4, 12])
    def test_scalar_is_batch_of_one(self, n):
        x = np.vstack([geometry.sample_unit_vectors(n, 20, geometry.stream(18, n)).T,
                       special_directions(n)])
        q = functionals.shadow_batch(x.T)
        for i, u in enumerate(x):
            assert functionals.shadow_volume(u) == q["vl"][i]
            assert functionals.shadow_area(u) == q["ar"][i]
            assert functionals.shadow_mean_width(u) == q["mw"][i]

    def test_near_axis_mean_width(self):
        # At a tilt of 1e-8 from an axis, 1 - u_0^2 cancels to a few digits;
        # the sum of the other squares does not.
        u = np.array([1.0, 1e-8, 0.0, 0.0])
        x = (u / np.linalg.norm(u))[None, :]
        reference = scalar_mean_width(x[0])
        old = hypot_kernel_reference(x, functionals.segment_mw_coeff(3))["mw"][0]
        assert abs(old - reference) > 1e-12
        assert functionals.shadow_batch(x.T)["mw"][0] == pytest.approx(
            reference, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [4, 12])
    def test_hypot_reference_agrees(self, n):
        x = geometry.sample_unit_vectors(n, 1000, geometry.stream(3, n))
        new = functionals.shadow_batch(x)
        old = hypot_kernel_reference(x.T.copy(),
                                     functionals.segment_mw_coeff(n - 1))
        assert np.array_equal(new["vl"], old["vl"])
        for q in ("ar", "mw"):
            np.testing.assert_allclose(new[q], old[q], rtol=1e-14, atol=0.0)


class TestAccumulate:
    SIZES = [moments.CHUNK] * 3 + [17]

    def chunks(self, offset, sigma):
        rng = np.random.default_rng(5)
        data = [offset + sigma * rng.standard_normal(size) for size in self.SIZES]
        return data, [moments._chunk_stats(d[None], (),
                                           np.empty((2, len(d))))
                      for d in data]

    def test_large_offset_variance(self):
        # offset / sigma = 1e5: sumsq/N - mean^2 cancels about ten digits.
        # The merge is limited by the rounding of the chunk means, about
        # ulp(offset) / (sigma sqrt(CHUNK)) = 6e-14 relative.
        data, stats = self.chunks(1e8, 1e3)
        samples = sum(self.SIZES)
        result = moments._accumulate(stats, ("v",), seed=0)
        mean, stderr = result.estimates["v"]
        reference = np.var(np.concatenate(data))
        assert stderr**2 * samples == pytest.approx(reference, rel=1e-12)
        assert mean == sum(sums[0] for _, sums, *_ in stats) / samples
        sumsq = sum(float(np.square(d).sum()) for d in data)
        old = sumsq / samples - mean * mean
        assert abs(old / reference - 1.0) > 1e-12

    def test_extremes_and_counts(self):
        data, stats = self.chunks(0.0, 1.0)
        values = np.concatenate(data)
        result = moments._accumulate(stats, ("v",), seed=0)
        assert result.extremes_observed["v"] == (values.min(), values.max())
        assert sum(count for count, *_ in stats) == len(values)
        assert result.samples == len(values)

    @pytest.mark.parametrize("chunks", [1, 2, 17])
    def test_vector_merge_equals_np_var(self, chunks):
        # Three rows of unlike offsets and scales, chunks of unequal sizes,
        # and two products, one of them a square: the one vector update
        # must give each quantity the variance of its concatenated samples.
        rng = np.random.default_rng(chunks)
        scale, offset = np.array([[1.0], [1e3], [1e-3]]), [[0.0], [1e6], [5.0]]
        data = [offset + scale * rng.standard_normal((3, m))
                for m in rng.integers(1, 5000, chunks)]
        stats = [moments._chunk_stats(d, ((0, 1), (2, 2)),
                                      np.empty((2, d.shape[1])))
                 for d in data]
        names = ("a", "b", "c", "ab", "c2")
        result = moments._accumulate(stats, names, seed=0)
        whole = np.concatenate(data, axis=1)
        for q, v in zip(names, [*whole, whole[0] * whole[1], whole[2]**2]):
            mean, stderr = result.estimates[q]
            assert mean == pytest.approx(v.mean(), rel=1e-14,
                                         abs=1e-14 * v.std())
            assert stderr**2 * len(v) == pytest.approx(np.var(v), rel=1e-12)
        for q, v in zip(names, whole):
            assert result.extremes_observed[q] == (v.min(), v.max())
        assert list(result.extremes_observed) == ["a", "b", "c"]


def octagon_chunk_reference(x, y):
    """The octagon at the points (x, y) of S^2 x S^2, rows (m, 3), in the
    plainest numpy: the perimeter as four norms |x - s y| and the area as
    a sum of maxima."""
    per = sum(np.linalg.norm(x - np.array(s) * y, axis=1)
              for s in functionals.SIGNS)
    return per, np.maximum(np.abs(x), np.abs(y)).sum(axis=1)


class TestMcOctagon:
    @pytest.mark.oldest_numpy(
        reason=("_mc draws every x of a chunk, redraws included, before any "
                "y, and the octagon kernel adds in numpy's reduce order"))
    def test_matches_chunk_reference(self):
        # one chunk: every x of its stream, then every y
        m = moments.CHUNK
        rng = geometry.stream(9, 0)
        x = geometry.sample_unit_vectors(3, m, rng)
        y = geometry.sample_unit_vectors(3, m, rng)
        per, area = functionals.octagon_xy(x, y)
        per_ref, area_ref = octagon_chunk_reference(x.T, y.T)
        np.testing.assert_allclose(per, per_ref, rtol=0.0, atol=4e-15)
        np.testing.assert_allclose(area, area_ref, rtol=0.0, atol=1e-15)
        mc = moments.mc_octagon(m, seed=9)
        assert mc.extremes_observed["area"] == (area.min(), area.max())
        assert mc.extremes_observed["perimeter"] == (per.min(), per.max())
        assert mc.estimates["perimeter"][0] == float(per.sum()) / m

    def test_perimeter2_second_route(self):
        # With t_j = 1 - u_j^2 - v_j^2, per = 2 sum_j sqrt(t_j), the t_j
        # sum to 2 and are exchangeable, so
        # E(per^2) = 8 + 48 E sqrt(t_1 t_2), and E sqrt(t_1 t_2) is
        # (1/4 pi) int int_[-1,1]^2 (1 - cd) E(k) dc dd with
        # k^2 = (1 - c^2)(1 - d^2)/(1 - cd)^2.  The integrand is symmetric
        # in (c, d) and k = 1 on the diagonal, so one triangle is
        # integrated, with the diagonal as its edge.
        def integrand(d, c):
            k = min(math.sqrt((1.0 - c * c) * (1.0 - d * d)) / (1.0 - c * d),
                    1.0)
            return (1.0 - c * d) * float(special.ellipe(k * k))

        half, _ = integrate.dblquad(integrand, -1.0, 1.0, -1.0, lambda c: c,
                                    epsabs=1e-10, epsrel=1e-10)
        value = 8.0 + 48.0 * 2.0 * half / (4.0 * math.pi)
        assert value == pytest.approx(moments.OCTAGON_TARGETS["perimeter2"],
                                      rel=0.0, abs=1e-11)

    def test_determinism_across_threads(self):
        a = moments.mc_octagon(200_000, seed=9, threads=1)
        b = moments.mc_octagon(200_000, seed=9, threads=4)
        assert a.estimates == b.estimates

    def test_perimeter2_reference(self, octagon_1e6):
        mean, stderr = octagon_1e6.estimates["perimeter2"]
        assert 28.495 - 4.0 * stderr <= mean <= 28.496 + 4.0 * stderr

    def test_extremes_within_bounds(self, octagon_1e6):
        per_lo, per_hi = octagon_1e6.extremes_observed["perimeter"]
        ar_lo, ar_hi = octagon_1e6.extremes_observed["area"]
        assert 4.0 - 1e-9 <= per_lo <= per_hi <= 4.0 * math.sqrt(2.0) + 1e-9
        assert 1.0 - 1e-9 <= ar_lo <= ar_hi <= 1.0 + math.sqrt(2.0) + 1e-9


def chunk_stats_reference(values, ranged):
    """`_chunk_stats` as it was: every quantity an array of its own, and M2
    from a fresh array v - mean; the first `ranged` quantities also keep
    their extremes."""
    count = len(values[0])
    sums = [float(v.sum()) for v in values]
    return (count, np.array(sums),
            np.array([float(np.square(v - s / count).sum())
                      for v, s in zip(values, sums)]),
            np.array([float(v.min()) for v in values[:ranged]]),
            np.array([float(v.max()) for v in values[:ranged]]))


SHADOW_NAMES = ("vl", "ar", "mw", *moments.SHADOW_PRODUCTS)
OCTAGON_NAMES = ("perimeter", "area", "perimeter2")


def shadow_chunk_reference(n, seed, index, m):
    """One chunk of mc_estimate as it was: the row-major kernels, and fresh
    arrays for the draw, the kernel and each of the nine quantities, in the
    order of SHADOW_NAMES."""
    x = mc_reference.sample_unit_vectors(n, m, geometry.stream(seed, index))
    q = mc_reference.shadow_batch(x)
    vl, ar, mw = q["vl"], q["ar"], q["mw"]
    values = [vl, ar, mw, vl**2, ar**2, mw**2, vl * ar, vl * mw, ar * mw]
    return chunk_stats_reference(values, 3)


def octagon_worker_reference(seed, index, m):
    """One chunk of mc_octagon: the row-major kernels, with fresh arrays
    throughout, and every x of the stream, its redraws included, before any
    y; the quantities in the order of OCTAGON_NAMES."""
    rng = geometry.stream(seed, index)
    x = mc_reference.sample_unit_vectors(3, m, rng)
    y = mc_reference.sample_unit_vectors(3, m, rng)
    per, area = mc_reference.octagon_xy(x, y)
    return chunk_stats_reference([per, area, per**2], 2)


@functools.lru_cache(maxsize=None)
def pipeline_reference(n, samples, seed):
    """The allocating pipeline, chunk by chunk on one thread; n None is the
    octagon."""
    sizes = [min(moments.CHUNK, samples - start)
             for start in range(0, samples, moments.CHUNK)]
    per_chunk = [shadow_chunk_reference(n, seed, i, m) if n
                 else octagon_worker_reference(seed, i, m)
                 for i, m in enumerate(sizes)]
    return moments._accumulate(per_chunk,
                               SHADOW_NAMES if n else OCTAGON_NAMES, seed)


WORKSPACE_SAMPLES = [1, 2, moments.CHUNK, 3 * moments.CHUNK + 17]

# Run in a fresh interpreter: minor faults per chunk beyond the second,
# after one warm-up call.
FAULTS_PER_CHUNK = """
import resource
from cubeshadow.moments import CHUNK, mc_estimate, mc_octagon

def faults(chunks):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    {call}
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(2)
print((faults(18) - faults(2)) / 16)
"""


@pytest.mark.oldest_numpy(
    reason=("the reused workspaces must give the bytes of the row-major "
            "reference pipeline, whose sums are numpy's"))
class TestChunkWorkspace:
    """The per-worker reused buffers give the bytes of fresh arrays."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("samples", WORKSPACE_SAMPLES)
    @pytest.mark.parametrize("n", [3, 4, 6, 7, 8, 9, 12])
    def test_mc_estimate_equals_reference(self, n, samples, threads):
        got = moments.mc_estimate(n, samples, seed=5, threads=threads)
        assert got == pipeline_reference(n, samples, 5)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n", [129, 342])
    def test_mc_estimate_equals_reference_at_large_n(self, monkeypatch, n,
                                                     threads):
        # The coordinate sums split above 128 rows.  Chunks of 128, the
        # last one short, keep the n(n - 1)/2 passes of the pair loop cheap.
        monkeypatch.setattr(moments, "CHUNK", 128)
        got = moments.mc_estimate(n, 300, seed=5, threads=threads)
        assert got == pipeline_reference.__wrapped__(n, 300, 5)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("samples", WORKSPACE_SAMPLES)
    def test_mc_octagon_equals_reference(self, samples, threads):
        got = moments.mc_octagon(samples, seed=5, threads=threads)
        assert got == pipeline_reference(None, samples, 5)

    @pytest.mark.parametrize("call", ["mc_estimate(6, chunks * CHUNK, 1)",
                                      "mc_octagon(chunks * CHUNK, 1)"])
    def test_minor_faults_do_not_grow_with_chunks(self, call):
        # A chunk that allocates its arrays afresh faults each page of
        # them in again (2,554 faults per chunk at n = 6); reused buffers
        # fault once, on the first chunk, so only a fixed cost remains,
        # which the difference of two calls cancels.
        pytest.importorskip("resource")
        src = str(Path(cubeshadow.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_CHUNK.format(call=call)],
            timeout=120, env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True)
        assert float(proc.stdout) < 100


def zeroed_streams(monkeypatch, n, zeros):
    """Make every `geometry.stream` a ZeroedStream; returns the list of
    the streams made."""
    made, stream = [], geometry.stream

    def zeroed(seed, index=0):
        made.append(ZeroedStream(stream(seed, index), n, zeros))
        return made[-1]

    monkeypatch.setattr(geometry, "stream", zeroed)
    return made


def workspace_bytes(monkeypatch, run):
    """The bytes of the arrays that run()'s workspace factory makes, taken
    without running a chunk."""
    made = []
    monkeypatch.setattr(moments, "_per_worker", made.append)
    monkeypatch.setattr(moments, "_run_chunked", lambda *args: None)
    run()
    return sum(a.nbytes for a in made[0]())


@pytest.mark.oldest_numpy(
    reason=("blocks and deferred redraws rest on numpy's Generator filling "
            "consecutive draws from one stream as it fills one draw"))
class TestBlockedChunks:
    """A chunk runs in blocks of MC_BLOCK directions, with the bytes of
    one batch, and its workspace is sized by the block, not by n CHUNK."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n", [129, 342])
    def test_blocks_that_do_not_divide_the_chunk(self, monkeypatch, n,
                                                 threads):
        # chunks of 128, 128 and 44: blocks of 48, 48 and 32, then one
        # short block of 44
        monkeypatch.setattr(moments, "CHUNK", 128)
        monkeypatch.setattr(moments, "MC_BLOCK", 48)
        got = moments.mc_estimate(n, 300, seed=5, threads=threads)
        assert got == pipeline_reference.__wrapped__(n, 300, 5)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_octagon_blocks_that_do_not_divide_the_chunk(self, monkeypatch,
                                                         threads):
        monkeypatch.setattr(moments, "CHUNK", 128)
        monkeypatch.setattr(moments, "MC_BLOCK", 48)
        got = moments.mc_octagon(300, seed=5, threads=threads)
        assert got == pipeline_reference.__wrapped__(None, 300, 5)

    @pytest.mark.parametrize("n", [4, 12])
    def test_redraw_is_deferred_to_the_end_of_the_chunk(self, monkeypatch,
                                                        n):
        # Direction 50 is in the second block of 48, and its first redraw
        # (direction 130 of the stream) is zero too: the block loop must
        # redraw it after all 130 draws, twice, as one batch does.
        monkeypatch.setattr(moments, "MC_BLOCK", 48)
        made = zeroed_streams(monkeypatch, n, (50, 130))
        got = moments.mc_estimate(n, 130, seed=5)
        assert [s.read for s in made] == [132 * n]
        assert got == pipeline_reference.__wrapped__(n, 130, 5)
        assert [s.read for s in made] == [132 * n, 132 * n]

    def test_octagon_redraws_of_x_and_y_are_deferred(self, monkeypatch):
        # x of plane 50 is zero: it is redrawn from direction 130 of the
        # stream, after all 130 x.  The y start at direction 131; y of
        # plane 100 (direction 231) is zero, and so is its first redraw
        # (direction 261, after all 130 y): it is drawn twice more, and the
        # kernel runs again on each redraw, as the reference's == shows.
        monkeypatch.setattr(moments, "MC_BLOCK", 48)
        made = zeroed_streams(monkeypatch, 3, (50, 231, 261))
        got = moments.mc_octagon(130, seed=5)
        assert [s.read for s in made] == [3 * (131 + 132)]
        assert got == pipeline_reference.__wrapped__(None, 130, 5)
        assert [s.read for s in made] == [3 * (131 + 132)] * 2

    @pytest.mark.parametrize("samples", [1000, 10**6])
    @pytest.mark.parametrize("n", [4, 12, 342])
    def test_mc_estimate_workspace_size(self, monkeypatch, n, samples):
        # two (n, block) arrays and two block rows for the kernels, and
        # five chunk rows: vl, ar, mw and the two of the statistics
        size = min(moments.CHUNK, samples)
        block = min(moments.MC_BLOCK, size)
        got = workspace_bytes(monkeypatch,
                              lambda: moments.mc_estimate(n, samples, 1))
        assert got == 8 * (5 * size + (2 * n + 2) * block)

    def test_mc_octagon_workspace_size(self, monkeypatch):
        # x, then the statistics' scratch, and perimeter and area: five
        # chunk rows; a block of y, and the draw's scratch, then the
        # kernel's: seven block rows
        got = workspace_bytes(monkeypatch,
                              lambda: moments.mc_octagon(10**6, 1))
        assert got == 8 * (5 * moments.CHUNK + 7 * moments.MC_BLOCK)
        assert got <= 3.7 * 2**20


# E[sqrt(u1^2 + u2^2) sqrt(u3^2 + u4^2)] = pi/(2n): the marginal of
# (u1, .., u4) is R w, w uniform on S^3 and independent of R, E[R^2] = 4/n,
# and the S^3-average of the degree-2 integrand is pi/8.  The seed was
# fixed before the test was first run.
DISJOINT_SEED = 8


@pytest.mark.parametrize("n", [4, 6, 12])
def test_disjoint_pair_term_monte_carlo(n):
    values = []
    for index in range(4):  # 4 * 10^5 samples in four streams
        x = geometry.sample_unit_vectors(n, 100_000,
                                         geometry.stream(DISJOINT_SEED, index))
        values.append(np.hypot(x[0], x[1]) * np.hypot(x[2], x[3]))
    values = np.concatenate(values)
    stderr = values.std() / math.sqrt(len(values))
    assert abs(values.mean() - math.pi / (2 * n)) / stderr < 4.0


def hull_cross_check_reference(samples, seed):
    """`hull_cross_check` as it was: one frame, projection, hull and
    measurement per direction."""
    rng = geometry.stream(seed, index=2**32)
    dirs = np.array([geometry.sample_unit_vector(4, rng)
                     for _ in range(samples)])
    q = functionals.shadow_batch(dirs.T)
    max_dev, good = 0.0, 0
    for i, u in enumerate(dirs):
        mesh = hull_reference.convex_hull_3d(
            geometry.cube_vertices(4) @ hull_reference.frame_rows(u).T)
        volume, area, mean_width = hull_reference.mesh_measures(mesh)
        dev = max(abs(volume - q["vl"][i]), abs(area - q["ar"][i]),
                  abs(mean_width - q["mw"][i]))
        max_dev = max(max_dev, dev)
        v, e, f = hull_reference.counts(mesh)
        good += bool(dev < 1e-9 and (v, e, f) == (14, 24, 12)
                     and v - e + f == 2)
    return max_dev, good / samples


def octagon_pairs(samples, seed):
    """The pairs of `octagon_report`'s hull cross-check."""
    rng = geometry.stream(seed, index=2**32 + 1)
    draws = np.array([geometry.sample_unit_vector(4, rng)
                      for _ in range(2 * samples)])
    u, g = draws[0::2], draws[1::2]
    return u, geometry.complete_pairs(u.T, g.T).T


@pytest.mark.oldest_numpy(
    reason=("the batch hull's _segment_sums relies on numpy's reduction "
            "order, and Qhull comes from scipy"))
class TestHullCrossCheck:
    def test_no_samples_is_a_range_error(self):
        with pytest.raises(geometry.DomainError,
                           match=r"^samples must be >= 1$"):
            moments.hull_cross_check(0, seed=1)

    def test_thousand_directions(self, hull_check_1e3):
        max_dev, rate = hull_check_1e3
        assert max_dev < 1e-9
        assert rate == 1.0

    def test_equals_per_direction_reference(self, hull_check_1e3):
        assert hull_check_1e3 == hull_cross_check_reference(1000, seed=11)

    def test_octagon_hulls_equal_per_pair_reference(self):
        u, v = octagon_pairs(300, seed=214)
        area, perimeter = hull.octagon_hull_batch(u, v)
        for i in range(len(u)):
            assert (area[i], perimeter[i]) == \
                hull_reference.octagon_hull_measures(u[i], v[i])

    def test_failure_names_its_direction(self, monkeypatch):
        project = geometry.project_vertices

        def flatten_eighth(rows):
            clouds = project(rows)
            clouds[7, :, 2] = 0.0
            return clouds

        monkeypatch.setattr(geometry, "project_vertices", flatten_eighth)
        with pytest.raises(hull.FlatInputError) as exc:
            moments.hull_cross_check(10, seed=3)
        rng = geometry.stream(3, index=2**32)
        u = [geometry.sample_unit_vector(4, rng) for _ in range(8)][7]
        assert exc.value.index == 7
        assert str(exc.value) == ("flat input, affine rank 2 in hull 7, "
                                  f"direction u = {u.tolist()}")

    def test_octagon_failure_names_its_pair(self, monkeypatch):
        project = geometry.project_vertices

        def collapse_fifth(rows):
            clouds = project(rows)
            clouds[4, :, 1] = clouds[4, :, 0]  # the fifth falls on a line
            return clouds

        monkeypatch.setattr(geometry, "project_vertices", collapse_fifth)
        monkeypatch.setattr(moments, "HULL_SAMPLES", 6)
        with pytest.raises(hull.FlatInputError) as exc:
            moments.octagon_report(1, seed=3)
        u, v = octagon_pairs(6, seed=3)
        assert exc.value.index == 4
        assert str(exc.value) == (
            "flat input, affine rank 1 in hull 4, "
            f"pair u = {u[4].tolist()}, v = {v[4].tolist()}")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_octagon_failure_in_a_later_block_names_its_pair(
            self, monkeypatch, threads):
        project = geometry.project_vertices

        def collapse_second_of_third_block(rows):
            clouds = project(rows)
            if len(clouds) == 2:  # of 10 in blocks of 4, only the third
                clouds[1, :, 1] = clouds[1, :, 0]
            return clouds

        monkeypatch.setattr(moments, "HULL_BLOCK", 4)
        monkeypatch.setattr(moments, "HULL_SAMPLES", 10)
        monkeypatch.setattr(geometry, "project_vertices",
                            collapse_second_of_third_block)
        with pytest.raises(hull.FlatInputError) as exc:
            moments.octagon_report(1, seed=3, threads=threads)
        u, v = octagon_pairs(10, seed=3)
        assert exc.value.index == 9
        assert str(exc.value) == (
            "flat input, affine rank 1 in hull 9, "
            f"pair u = {u[9].tolist()}, v = {v[9].tolist()}")
        assert_no_child()

    def test_blocks_equal_one_batch(self, monkeypatch):
        # 23 hulls in blocks of 5 (the last one short) measure as one batch
        monkeypatch.setattr(moments, "HULL_SAMPLES", 23)
        whole = moments.hull_cross_check(23, seed=8)
        octagon = moments.octagon_report(1, seed=8)
        monkeypatch.setattr(moments, "HULL_BLOCK", 5)
        assert moments.hull_cross_check(23, seed=8) == whole
        blocked = moments.octagon_report(1, seed=8)
        assert (blocked.hull_max_deviation, blocked.hull_pass_rate) == \
            (octagon.hull_max_deviation, octagon.hull_pass_rate)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_in_a_later_block_names_its_direction(self, monkeypatch,
                                                          threads):
        project = geometry.project_vertices

        def flatten_second_of_third_block(rows):
            clouds = project(rows)
            if len(clouds) == 2:  # of 10 in blocks of 4, only the third
                clouds[1, :, 2] = 0.0
            return clouds

        monkeypatch.setattr(moments, "HULL_BLOCK", 4)
        monkeypatch.setattr(geometry, "project_vertices",
                            flatten_second_of_third_block)
        with pytest.raises(hull.FlatInputError) as exc:
            moments.hull_cross_check(10, seed=3, threads=threads)
        rng = geometry.stream(3, index=2**32)
        u = [geometry.sample_unit_vector(4, rng) for _ in range(10)][9]
        assert exc.value.index == 9
        assert str(exc.value) == ("flat input, affine rank 2 in hull 9, "
                                  f"direction u = {u.tolist()}")
        assert_no_child()


class TestVerifyReport:
    def test_schema_and_pass(self, monkeypatch):
        monkeypatch.setattr(moments, "HULL_SAMPLES", 50)
        rep = moments.verify_report(4, 100_000, seed=25)
        d = rep.as_dict()
        assert d["spec_version"] == moments.SPEC_VERSION
        assert d["n"] == 4 and d["samples"] == 100_000 and d["seed"] == 25
        assert d["pass"] is True
        names = [r["name"] for r in d["rows"]]
        assert names == ["vl", "ar", "mw", "vl2", "ar2", "mw2",
                         "vl_ar", "vl_mw", "ar_mw"]
        for row in d["rows"]:
            assert set(row) == {"name", "closed_form", "estimate", "stderr", "z"}
        assert d["hull_pass_rate"] == 1.0
        assert d["hull_max_deviation"] < 1e-9

    def test_json_deterministic(self, monkeypatch):
        monkeypatch.setattr(moments, "HULL_SAMPLES", 10)
        a = moments.json_text(
            moments.verify_report(4, 70_000, seed=3).as_dict())
        b = moments.json_text(
            moments.verify_report(4, 70_000, seed=3).as_dict())
        assert a == b
        parsed = json.loads(a)
        assert parsed["seed"] == 3

    def test_n3_has_no_joint_rows(self):
        rep = moments.verify_report(3, 70_000, seed=5)
        names = {r.name for r in rep.rows}
        assert names == {"vl", "vl2", "ar", "ar2", "mw", "mw2"}
        assert rep.hull_pass_rate is None

    def test_n5_mw2_against_monte_carlo(self):
        # E(mw^2) at n = 5, the closed form with a 3F2, has the quadrature
        # `integral_e_mw2_5cube` as one route and this run as the other
        rep = moments.verify_report(5, 200_000, seed=505)
        assert [r.name for r in rep.rows] == [
            "vl", "ar", "mw", "vl2", "ar2", "mw2"]
        assert rep.passed, [(r.name, r.z) for r in rep.rows]

    def test_octagon_report(self, monkeypatch):
        monkeypatch.setattr(moments, "HULL_SAMPLES", 50)
        rep = moments.octagon_report(200_000, seed=214)
        assert rep.passed is True
        assert rep.hull_pass_rate == 1.0
        assert ({r.name: r.closed_form for r in rep.rows}
                == moments.OCTAGON_TARGETS)
        assert rep.rows[0].name == "perimeter2"

    @pytest.mark.parametrize("octagon", [False, True])
    @pytest.mark.parametrize("outside", [False, True])
    def test_extreme_outside_its_range_fails(self, monkeypatch, octagon,
                                             outside):
        # Every estimate on its target with stderr 1 (z = 0); only the
        # observed extremes decide.
        if octagon:
            targets, ranges = moments.OCTAGON_TARGETS, moments.OCTAGON_RANGES
        else:
            targets = moments.closed_form_targets(5)
            ranges = moments.extremes_table(5)
        extremes = dict(ranges)
        if outside:
            q, (lo, hi) = next(iter(ranges.items()))
            extremes[q] = (lo, hi + 1e-6)
        stub = moments.McResult(
            samples=10, seed=1,
            estimates={q: (t, 1.0) for q, t in targets.items()},
            extremes_observed=extremes)
        monkeypatch.setattr(moments, "mc_octagon" if octagon else "mc_estimate",
                            lambda *args, **kwargs: stub)
        if octagon:
            # the hull cross-check always runs: ten pairs keep it short
            monkeypatch.setattr(moments, "HULL_SAMPLES", 10)
            rep = moments.octagon_report(10, seed=1)
        else:
            rep = moments.verify_report(5, 10, seed=1)
        assert all(r.z == 0.0 and r.passed for r in rep.rows)
        assert rep.hull_pass_rate in (None, 1.0)
        assert rep.passed is not outside
