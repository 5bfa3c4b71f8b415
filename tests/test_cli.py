import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubeshadow
from cubeshadow import cli, geometry, hull, moments


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoments:
    def test_n4_json(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "1.69765272631355" in out
        assert "64.13613026108" in out
        assert payload["moments"]["n"] == 4
        assert "joint" in payload

    def test_n3_contains_mw2(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--n", "3", "--format", "json")
        assert code == 0
        assert "2.253091059149751" in out
        assert "joint" not in json.loads(out)

    def test_n2_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "moments", "--n", "2")
        assert code == 2
        assert "error" in err

    def test_largest_n(self, capsys):
        # Gamma((n+1)/2) overflows beyond MAX_N = 342
        code, _, _ = run_cli(capsys, "moments", "--n", str(moments.MAX_N))
        assert code == 0
        code, out, err = run_cli(capsys, "moments", "--n", "343")
        assert (code, out) == (2, "")
        assert err == "error: need 3 <= n <= 342, got 343\n"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--n", "4")
        assert code == 0
        assert "e_vl" in out and "range" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--n", "5", "--format", "csv")
        assert code == 0
        assert out.startswith("name,value")
        assert "e_mw2," in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, out, _ = run_cli(capsys, "moments", "--format", "json",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["moments"]["n"] == 4

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "m.json"
        code, out, err = run_cli(capsys, "moments", "--n", "3",
                                 "--out", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot open --out {path}: "
                       "No such file or directory\n")

    def test_empty_out_is_a_usage_error(self, capsys):
        # an empty path is a file name that cannot be opened, not stdout
        code, out, err = run_cli(capsys, "moments", "--n", "3", "--out", "")
        assert (code, out) == (2, "")
        assert err == "error: cannot open --out : No such file or directory\n"

    def test_other_os_errors_are_not_usage_errors(self, capsys, monkeypatch):
        # only the open of --out is a usage error; an OSError elsewhere, such
        # as a failed fork of the Monte Carlo workers, propagates
        def fail(n):
            raise OSError("fork failed")
        monkeypatch.setattr(moments, "closed_form_table", fail)
        with pytest.raises(OSError, match="fork failed"):
            cli.main(["moments", "--n", "3"])


class TestVerify:
    def test_json_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4",
                               "--samples", "100000", "--seed", "25",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["spec_version"] == moments.SPEC_VERSION

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: |z| < 4 on each of the nine correlated rows fails "
        "on correct code at seed 707 (z +4.63 to +5.02 on every row); "
        "unmark when the calibrated joint gate lands"))
    def test_seed_707_passes_on_correct_code(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n", "4", "--samples",
                             "1000000", "--seed", "707", "--format", "json")
        assert code == 0

    @pytest.mark.parametrize("argv,chunk", [
        (("--samples", "200000"), None),
        (("--octagon", "--samples", "200000"), None),
        (("--n", "6", "--samples", "200000"), None),
        # 3 CHUNK + 17: the last chunk is partial
        (("--n", "12", "--samples", "196625"), None),
        # the first n whose coordinate sums take numpy's blocks of 8
        (("--n", "9", "--samples", "196625"), None),
        # the first n whose coordinate sums split; chunks of 512, the last
        # one short, keep the 8256 pairs cheap
        (("--n", "129", "--samples", "2000"), 512),
    ], ids=["n4", "octagon", "n6", "n12", "n9", "n129"])
    def test_byte_identical_across_runs_and_threads(self, capsys, tmp_path,
                                                    monkeypatch, argv, chunk):
        # a second run at 1 worker, then 2 and 3 forked workers
        if chunk:
            monkeypatch.setattr(moments, "CHUNK", chunk)
        blobs = []
        for i, count in enumerate(("1", "1", "2", "3")):
            path = tmp_path / f"r{i}.json"
            code, _, _ = run_cli(capsys, "verify", *argv, "--seed", "25",
                                 "--threads", count, "--format", "json",
                                 "--out", str(path))
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[1:] == blobs[:1] * 3

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="the default is 1 without sched_getaffinity")
    def test_threads_default_to_the_usable_cpus(self):
        for argv in (["verify"], ["octagon"]):
            args = cli.build_parser().parse_args(argv)
            assert args.threads == len(os.sched_getaffinity(0))

    def test_n2_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2")
        assert code == 2
        assert "error" in err

    def test_n343_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "343",
                                 "--samples", "10")
        assert (code, out) == (2, "")
        assert err == "error: need 3 <= n <= 342, got 343\n"

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--samples",
                               "70000", "--seed", "5", "--format", "csv")
        rep = moments.verify_report(3, 70_000, seed=5)
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "name,closed_form,estimate,stderr,z"
        assert len(lines) == 1 + len(rep.rows)

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "100000",
                               "--seed", "25")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "hull cross-check pass rate 1.000" in out

    def test_one_sample_json_is_strict(self, capsys):
        # stderr is 0 at one sample, so z is infinite: null in JSON
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code, out, err = run_cli(capsys, "verify", "--n", "4", "--samples",
                                 "1", "--seed", "5", "--format", "json")
        payload = json.loads(out, parse_constant=reject)
        assert code == 1
        assert payload["pass"] is False
        assert [r["z"] for r in payload["rows"]] == [None] * 9
        assert "FAIL rows" in err

    def test_octagon_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--octagon",
                               "--samples", "100000", "--seed", "214",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["name"] == "perimeter2"

    def test_octagon_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "octagon", "--samples", "100000",
                               "--seed", "214", "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestConstants:
    def test_zeta4(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "zeta4",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["rows"][0]["target"] == 7.118558716719735

    def test_pi128(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "pi128",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = [r["name"] for r in payload["rows"]]
        assert names == ["pi128_first", "pi128_second", "pi128_third",
                         "pi128_combination"]
        assert all(r["pass"] for r in payload["rows"])

    def test_zeta3_zeta5(self, capsys):
        for which in ("zeta3", "zeta5"):
            code, out, _ = run_cli(capsys, "constants", "--which", which,
                                   "--format", "json")
            assert code == 0
            assert json.loads(out)["pass"] is True

    def test_moment_integrals_pass_at_default_tol(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "moments",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["pass"]
        assert payload["tolerance"] == 1e-9
        assert len(payload["rows"]) == 11
        assert all(row["pass"] for row in payload["rows"])

    def test_moment_targets_are_the_moments_closed_forms(self):
        # the targets are the values that `moments` and `verify` print
        t = moments.closed_form_targets(4)
        entries = library_result(("constants", "--which", "moments"))
        assert [name for name, _, _ in entries] == [
            "integral_e_vl", "integral_e_vl2", "integral_e_ar",
            "integral_e_ar2", "integral_e_mw", "integral_e_mw2",
            "integral_e_vl_ar", "integral_e_vl_mw", "integral_e_ar_mw",
            "integral_e_mw2_3cube", "integral_e_mw2_5cube"]
        assert [target for _, _, target in entries] == [
            t["vl"], t["vl2"], t["ar"], t["ar2"], t["mw"], t["mw2"],
            t["vl_ar"], t["vl_mw"], t["ar_mw"],
            moments.closed_form_table(3)["e_mw2"],
            moments.closed_form_table(5)["e_mw2"]]

    def test_impossible_tolerance_fails(self, capsys):
        # the moment integrals miss their closed forms by 2e-16 to 1e-13
        code, out, _ = run_cli(capsys, "constants", "--which", "moments",
                               "--tol", "1e-18")
        assert code == 1
        assert out.strip().endswith("FAIL")

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "pi128")
        assert code == 0
        assert out.strip().endswith("PASS")


class TestHullDump:
    def test_off_output(self, capsys):
        code, out, _ = run_cli(capsys, "hull-dump", "--seed", "9")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "OFF"
        nv, nf, ne = map(int, lines[1].split())
        assert (nv, nf, ne) == (14, 12, 24)

    # sha256 of `hull-dump --seed 9`, which fixes the vertex order, the face
    # order and each loop's starting vertex (recorded with numpy's OpenBLAS
    # wheel on x86-64).  The frame is a free choice of the dump, so these
    # change with it: they were re-pinned when the Householder frame
    # replaced the explicit 4D one, with the same 14 vertices, 24 edges and
    # 12 faces, and measures within 1e-14; and again when the streams
    # became SeedSequence-spawned SFC64, which draws another direction.
    OFF_SEED9_SHA256 = (
        "ef3415e9e01db2db6917158cea610ca63db8a4448eefcfd9f0ffa14587c976c9")
    OFF_SEED9_FACES = ["4 0 4 12 8", "4 0 2 6 4", "4 8 10 2 0", "4 5 6 2 1",
                       "4 3 4 6 5", "4 7 8 12 11", "4 3 5 13 11",
                       "4 11 12 4 3", "4 1 2 10 9", "4 9 10 8 7",
                       "4 9 13 5 1", "4 11 13 9 7"]

    def test_off_bytes_pinned(self, capsys):
        out = run_cli(capsys, "hull-dump", "--seed", "9")[1]
        assert out.strip().split("\n")[-12:] == self.OFF_SEED9_FACES
        assert hashlib.sha256(out.encode()).hexdigest() == self.OFF_SEED9_SHA256

    def test_off_text_of_the_scalar_sampler(self, capsys):
        # hull-dump draws a batch of one of `sample_unit_vectors`, whose
        # column is the direction that `sample_unit_vector` draws from the
        # same stream, so it dumps the shadow of that direction
        u = geometry.sample_unit_vector(4, geometry.stream(9))
        off = hull.to_off(hull.shadow_hulls(u[None]))
        assert run_cli(capsys, "hull-dump", "--seed", "9")[1] == off

    def test_seed_determinism(self, capsys):
        a = run_cli(capsys, "hull-dump", "--seed", "9")[1]
        b = run_cli(capsys, "hull-dump", "--seed", "9")[1]
        c = run_cli(capsys, "hull-dump", "--seed", "10")[1]
        assert a == b
        assert a != c


@pytest.mark.parametrize("module", ["mpmath", "scipy.integrate", "sympy",
                                    "hypothesis", "pytest"])
def test_import_does_not_load_mpmath(module):
    # none is a dependency of the library: mpmath is the tests' oracle,
    # QUADPACK (scipy.integrate) their second quadrature route, and sympy,
    # hypothesis and pytest the rest of the [test] extras
    src = str(Path(cubeshadow.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = f"import sys, cubeshadow.cli; sys.exit({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0


CLOSED_FORMS_ALONE = """
import sys
import cubeshadow
assert not [m for m in sys.modules if m.startswith("cubeshadow.")]
from cubeshadow import functionals, geometry
functionals.shadow_batch(
    geometry.sample_unit_vectors(4, 1000, geometry.stream(1)))
rng = geometry.stream(2)
functionals.octagon_xy(geometry.sample_unit_vectors(3, 1000, rng),
                       geometry.sample_unit_vectors(3, 1000, rng))
loaded = [m for m in sys.modules
          if m == "cubeshadow.hull" or m.split(".")[0] == "scipy"]
assert not loaded, loaded
"""


def test_closed_forms_do_not_load_scipy():
    # The closed forms and the hull oracle are two independent routes to
    # the same measures, and the closed forms need numpy alone.
    src = str(Path(cubeshadow.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", CLOSED_FORMS_ALONE],
                          timeout=60, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "4", "--samples", "70000", "--threads", "2"],
    ["verify", "--octagon", "--samples", "70000", "--threads", "2"],
    ["hull-dump", "--seed", "9"],
], ids=["verify_n4", "verify_octagon", "hull_dump"])
def test_bytes_do_not_depend_on_blas_threads(argv):
    # The hull path runs matmul and SVD through BLAS, and the Monte Carlo
    # forks its workers from a process whose BLAS may run threads: the
    # output is the same bytes at one BLAS thread and at two.
    src = str(Path(cubeshadow.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for blas in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": blas}
        proc = subprocess.run([sys.executable, "-m", "cubeshadow.cli", *argv],
                              timeout=120, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["verify", "--samples", "0"],
                                      ["verify", "--samples", "-3"],
                                      ["octagon", "--samples", "0"],
                                      ["octagon", "--samples", "-3"]])
    def test_samples_below_one(self, capsys, argv):
        assert run_cli(capsys, *argv) == (
            2, "", "error: samples must be >= 1\n")

    @pytest.mark.parametrize("argv", [["verify", "--threads", "0"],
                                      ["octagon", "--threads", "-2"]])
    def test_threads_below_one(self, capsys, argv):
        assert run_cli(capsys, *argv) == (
            2, "", "error: threads must be >= 1\n")

    @pytest.mark.parametrize("argv", [["moments", "--seed", "1"],
                                      ["constants", "--seed", "1"],
                                      ["hull-dump", "--format", "json"],
                                      ["hull-dump", "--format", "csv"]])
    def test_options_that_do_nothing_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_tolerance_not_finite_or_negative(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", "--which", "zeta4", f"--tol={tol}",
                      "--format", "json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"argument --tol: must be a finite number >= 0, got {tol}"
                in captured.err)

    @pytest.mark.parametrize("argv", [["--octagon", "--n", "7"],
                                      ["--n", "7", "--octagon"],
                                      ["--n", "4", "--octagon"]])
    def test_verify_n_and_octagon_exclude_each_other(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv, "--samples", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_tolerance_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", "--tol", "tight"])
        assert exc.value.code == 2
        assert ("argument --tol: invalid float value: 'tight'"
                in capsys.readouterr().err)

    def test_zero_tolerance_is_accepted(self, capsys):
        # --tol 0 parses, and a row then passes only where it meets its
        # closed form exactly; zeta4 is within 2 ulps of it, no row is
        # exact by construction, so the exit status follows the rows
        rc = cli.main(["constants", "--which", "zeta4", "--tol", "0",
                       "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tolerance"] == 0.0
        assert [row["pass"] for row in payload["rows"]] == [
            row["discrepancy"] == 0.0 for row in payload["rows"]]
        assert rc == (0 if payload["pass"] else 1)
        assert payload["rows"][0]["discrepancy"] < 4 * 2.0 ** -50

    def test_samples_not_an_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--samples", "1.5"])
        assert exc.value.code == 2
        assert ("argument --samples: invalid int value: '1.5'"
                in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Reference renderers: the per-command json/csv/text bodies of the CLI, and
# the report's as_dict/to_json/to_csv, as they were before every command
# went through one writer.  Each takes the parsed arguments and the library
# result and returns (exit code, stdout, stderr).

def reference_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def reference_table_dict(t):
    d = {"n": t["n"], "e_vl": t["e_vl"], "e_vl2": t["e_vl2"],
         "e_ar": t["e_ar"], "e_ar2": t["e_ar2"], "e_mw": t["e_mw"],
         "zeta_used": t["zeta_used"], "zeta_source": t["zeta_source"],
         "extremes": t["extremes"]}
    if "e_mw2" in t:
        d["e_mw2"] = t["e_mw2"]
    return d


def reference_joint_dict(j):
    return dict(e_vl_ar=j["e_vl_ar"], e_vl_mw=j["e_vl_mw"],
                e_ar_mw=j["e_ar_mw"], corr_vl_ar=j["corr_vl_ar"],
                corr_vl_mw=j["corr_vl_mw"], corr_ar_mw=j["corr_ar_mw"])


def reference_moments(args, result):
    table, joint = result
    if args.format == "json":
        payload = {"spec_version": moments.SPEC_VERSION,
                   "moments": reference_table_dict(table)}
        if args.n == 4:
            payload["joint"] = reference_joint_dict(joint)
        return 0, reference_json(payload), ""
    elif args.format == "csv":
        lines = ["name,value"]
        for key, value in reference_table_dict(table).items():
            if isinstance(value, (int, float)):
                lines.append(f"{key},{value!r}")
        if args.n == 4:
            for key, value in reference_joint_dict(joint).items():
                lines.append(f"{key},{value!r}")
    else:
        lines = [f"closed-form moments, n={args.n}"]
        for key, value in reference_table_dict(table).items():
            if isinstance(value, (int, float)):
                lines.append(f"  {key:12s} {value!r}")
        lines.append(f"  zeta source: {table['zeta_source']}")
        for name, (lo, hi) in table["extremes"].items():
            lines.append(f"  {name} range   [{lo!r}, {hi!r}]")
        if args.n == 4:
            for key, value in reference_joint_dict(joint).items():
                lines.append(f"  {key:12s} {value!r}")
    return 0, "\n".join(lines) + "\n", ""


def reference_report_dict(report):
    d = {
        "spec_version": moments.SPEC_VERSION,
        "n": report.n,
        "samples": report.samples,
        "seed": report.seed,
        "rows": [{"name": r.name, "closed_form": r.closed_form,
                  "estimate": r.estimate, "stderr": r.stderr,
                  "z": r.z if math.isfinite(r.z) else None}
                 for r in report.rows],
        "pass": report.passed,
    }
    if report.hull_pass_rate is not None:
        d["hull_pass_rate"] = report.hull_pass_rate
        d["hull_max_deviation"] = report.hull_max_deviation
    if report.extremes_observed:
        d["extremes_observed"] = {k: list(v) for k, v
                                  in report.extremes_observed.items()}
    return d


def reference_verify(args, report):
    if args.format == "json":
        out = reference_json(reference_report_dict(report))
    elif args.format == "csv":
        lines = ["name,closed_form,estimate,stderr,z"]
        for r in report.rows:
            lines.append(f"{r.name},{r.closed_form!r},{r.estimate!r},"
                         f"{r.stderr!r},{r.z!r}")
        out = "\n".join(lines) + "\n"
    else:
        lines = [f"verify n={report.n} samples={report.samples} "
                 f"seed={report.seed}"]
        for r in report.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  {r.name:12s} closed={r.closed_form:<20.15g} "
                         f"est={r.estimate:<20.15g} z={r.z:+.2f} {status}")
        if report.hull_pass_rate is not None:
            lines.append(f"  hull cross-check pass rate "
                         f"{report.hull_pass_rate:.3f}"
                         f" (max dev {report.hull_max_deviation:.3g})")
        lines.append("PASS" if report.passed else "FAIL")
        out = "\n".join(lines) + "\n"
    err = ""
    if not report.passed:
        if args.format != "text":
            failing = [r.name for r in report.rows if not r.passed]
            err = f"FAIL rows: {failing}\n"
        return 1, out, err
    return 0, out, err


def reference_constants(args, entries):
    rows = []
    ok = True
    for name, computed, target in entries:
        disc = abs(computed - target)
        passed = disc <= args.tol
        ok = ok and passed
        rows.append({"name": name, "computed": computed, "target": target,
                     "discrepancy": disc, "pass": passed})
    if args.format == "json":
        out = reference_json({"spec_version": moments.SPEC_VERSION,
                              "tolerance": args.tol, "rows": rows,
                              "pass": ok})
    elif args.format == "csv":
        lines = ["name,computed,target,discrepancy,pass"]
        for r in rows:
            lines.append(f"{r['name']},{r['computed']!r},{r['target']!r},"
                         f"{r['discrepancy']!r},{r['pass']}")
        out = "\n".join(lines) + "\n"
    else:
        lines = []
        for r in rows:
            status = "PASS" if r["pass"] else "FAIL"
            lines.append(f"  {r['name']:24s} computed={r['computed']:<22.16g}"
                         f" target={r['target']:<22.16g}"
                         f" disc={r['discrepancy']:.3g} {status}")
        lines.append("PASS" if ok else "FAIL")
        out = "\n".join(lines) + "\n"
    return (0 if ok else 1), out, ""


REFERENCES = {"moments": reference_moments, "verify": reference_verify,
              "constants": reference_constants}


@functools.lru_cache(maxsize=None)
def library_result(argv):
    """The library result a command renders; one per command line."""
    args = cli.build_parser().parse_args(list(argv))
    if args.command == "moments":
        return (moments.closed_form_table(args.n),
                moments.joint_table(args.n))
    if args.command == "constants":
        return cli._constants_entries(args.which)
    if args.octagon:
        return moments.octagon_report(args.samples, args.seed)
    return moments.verify_report(args.n, args.samples, args.seed)


def reference_output(argv):
    args = cli.build_parser().parse_args(argv)
    return REFERENCES[args.command](args, library_result(tuple(argv[:-2])))


REFERENCE_CASES = [
    ("moments", "--n", "3"),
    ("moments", "--n", "4"),
    ("moments", "--n", "5"),
    ("moments", "--n", "6"),
    ("constants", "--which", "zeta3"),
    ("constants", "--which", "pi128"),
    ("constants", "--which", "moments"),
    ("constants", "--which", "zeta4", "--tol", "1e-18"),  # disc 0: PASS
    ("constants", "--which", "pi128", "--tol", "1e-20"),  # FAIL, exit 1
    ("verify", "--n", "3", "--samples", "20000", "--seed", "5"),
    ("verify", "--n", "4", "--samples", "20000", "--seed", "5"),
    ("verify", "--n", "3", "--samples", "1", "--seed", "5"),  # z = inf, json null: FAIL
    ("verify", "--octagon", "--samples", "20000", "--seed", "214"),
]


class TestReferenceRenderer:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("case", REFERENCE_CASES, ids=" ".join)
    def test_same_bytes(self, capsys, case, fmt):
        argv = [*case, "--format", fmt]
        assert run_cli(capsys, *argv) == reference_output(argv)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "constants.csv"
        case = ("constants", "--which", "zeta4", "--tol", "1e-18")
        code, out, err = run_cli(capsys, *case, "--out", str(path),
                                 "--format", "csv")
        assert out == ""
        assert (code, path.read_text(), err) == reference_output(
            [*case, "--format", "csv"])
