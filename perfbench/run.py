"""Benchmark of the cubeshadow CLI: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload analytic|sampling|oracle|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every CLI command runs in its own fresh
interpreter (perfbench/child.py), as a user's call does, so import cost and
the program's in-process caches are paid by every command.  A run repeats
the workload's commands until S seconds have passed (at least once) and
reports medians.  With --trace 1 the passes alternate untraced and traced;
the traced ones record spans around the program's public functions and give
the per-layer metrics.  Runs of perfbench/reference.py, work that does not
depend on the program, bracket every command; the end-to-end times are
taken relative to them, to cancel the drift of a shared machine's speed.
Every command's output is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed`, `metrics`.  See
perfbench/METRICS.md for why each workload exists and which metric should
move which.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
NPROC = len(os.sched_getaffinity(0))
REFERENCE = BENCH_DIR / "reference.py"
# setup_s is the import time scaled to the reference import's speed: the
# median ratio of import to reference import, times the reference import's
# median on a 2-vCPU Xeon at 2.0 GHz.  The constant only sets the scale.
REF_IMPORT_S = 0.73
CHILD_TIMEOUT_S = 170
MOMENT_REL_TOL = 1e-9

# The paper's zeta_4 (also the target `constants` checks against).
ZETA4 = 7.118558716719735
# E(mw^2) of the 5-cube shadow; the 4D quadrature of `constants`
# (integral_e_mw2_5cube) reproduces it to 4e-13.
E_MW2_N5 = 3.516040901689803

# name -> (commands, span names whose call count must be zero).  A command
# is (metric name, CLI arguments); verify commands also get --seed.
WORKLOADS = {
    "analytic": ([
        ("constants_all", ["constants", "--which", "all"]),
        ("moments_n3", ["moments", "--n", "3"]),
        ("moments_n5", ["moments", "--n", "5"]),
    ], ["hull.convex_hull_3d"]),
    "sampling": ([
        ("verify_n6_1t", ["verify", "--n", "6", "--samples", "4000000",
                          "--threads", "1"]),
        ("verify_n6_mt", ["verify", "--n", "6", "--samples", "4000000",
                          "--threads", str(NPROC)]),
        ("verify_n12", ["verify", "--n", "12", "--samples", "1000000"]),
    ], ["specfun.hyp3f2_unit", "hull.convex_hull_3d"]),
    "oracle": ([
        ("verify_n4", ["verify", "--n", "4", "--samples", "1000000"]),
        ("verify_octagon", ["verify", "--octagon", "--samples", "1000000"]),
    ], ["specfun.hyp3f2_unit"]),
}

CONSTANT_NAMES = {
    "zeta4", "zeta3_integral", "zeta3_3f2", "zeta5_reduction", "pi128_first",
    "pi128_second", "pi128_third", "pi128_combination", "integral_e_vl",
    "integral_e_vl2", "integral_e_ar", "integral_e_ar2", "integral_e_mw",
    "integral_e_mw2", "integral_e_vl_ar", "integral_e_vl_mw",
    "integral_e_ar_mw", "integral_e_mw2_3cube", "integral_e_mw2_5cube",
}

# Span aggregates reported per layer: metric -> (span name, field).
SPAN_METRICS = {
    "specfun.hyp3f2_unit.calls": ("specfun.hyp3f2_unit", "calls"),
    "specfun.hyp3f2_unit.total_s": ("specfun.hyp3f2_unit", "total_s"),
    "specfun.elliptic_imag.calls": ("specfun.elliptic_imag", "calls"),
    "specfun.elliptic_imag.total_s": ("specfun.elliptic_imag", "total_s"),
    "quad.moment_integral_suite.total_s": ("quad.moment_integral_suite", "total_s"),
    "quad.moment_integral_suite.self_s": ("quad.moment_integral_suite", "self_s"),
    "quad.zeta4_quadrature.calls": ("quad.zeta4_quadrature", "calls"),
    "quad.zeta4_quadrature.total_s": ("quad.zeta4_quadrature", "total_s"),
    "quad.zeta3_quadrature.total_s": ("quad.zeta3_quadrature", "total_s"),
    "quad.zeta5_reduction_check.total_s": ("quad.zeta5_reduction_check", "total_s"),
    "quad.pi_over_128_suite.total_s": ("quad.pi_over_128_suite", "total_s"),
    "quad.integrate_1d.calls": ("quad.integrate_1d", "calls"),
    "quad.integrate_1d.evaluations": ("quad.integrate_1d", "work"),
    "moments.closed_form_table.calls": ("moments.closed_form_table", "calls"),
    "moments.closed_form_table.total_s": ("moments.closed_form_table", "total_s"),
    "moments.closed_form_table.self_s": ("moments.closed_form_table", "self_s"),
    "moments.mc_estimate.total_s": ("moments.mc_estimate", "total_s"),
    "moments.mc_estimate.self_s": ("moments.mc_estimate", "self_s"),
    "moments.mc_octagon.total_s": ("moments.mc_octagon", "total_s"),
    "moments.hull_cross_check.self_s": ("moments.hull_cross_check", "self_s"),
    "moments.octagon_report.self_s": ("moments.octagon_report", "self_s"),
    "geometry.sample_unit_vectors.total_s": ("geometry.sample_unit_vectors", "total_s"),
    "geometry.sample_unit_vector.calls": ("geometry.sample_unit_vector", "calls"),
    "geometry.build_frame.total_s": ("geometry.build_frame", "total_s"),
    "geometry.project_vertices.total_s": ("geometry.project_vertices", "total_s"),
    "functionals.octagon_perimeter.total_s": ("functionals.octagon_perimeter", "total_s"),
    "hull.convex_hull_3d.calls": ("hull.convex_hull_3d", "calls"),
    "hull.convex_hull_3d.self_s": ("hull.convex_hull_3d", "self_s"),
    "hull.qhull.total_s": ("hull.qhull", "total_s"),
    "hull.mesh_measures.total_s": ("hull.mesh_measures", "total_s"),
    "hull.convex_hull_2d.total_s": ("hull.convex_hull_2d", "total_s"),
}
FIELDS = ("calls", "total_s", "self_s", "work")

# Exact counts of the traced run at the commit that added this benchmark.
# A count that moves is reported as a program change, not as a failure.
EXPECTED_COUNTS = json.loads((BENCH_DIR / "counts.json").read_text())


# ---------------------------------------------------------------------------
# running one command

def run_child(cli_args: list[str], trace: bool) -> dict:
    """Run one command in a fresh interpreter; {"error": ...} if it broke."""
    cmd = [sys.executable, str(CHILD), str(SRC), "1" if trace else "0",
           "--", *cli_args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(report["module"]).resolve().is_relative_to(SRC.resolve()):
        return {"error": f"imported {report['module']}, not the checkout"}
    return report


def reference() -> dict:
    """Time perfbench/reference.py once: {"import_s": ..., "total_s": ...}."""
    proc = subprocess.run([sys.executable, str(REFERENCE)], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    import_s, compute_s = map(float, proc.stdout.split())
    return {"import_s": import_s, "total_s": import_s + compute_s}


def between(before: dict, after: dict) -> dict:
    """The reference for a child run between two reference runs: their mean."""
    return {key: (before[key] + after[key]) / 2 for key in before}


def _close(value: float, reference: float, what: str, problems: list) -> None:
    if not abs(value - reference) <= MOMENT_REL_TOL * abs(reference):
        problems.append(f"{what} = {value!r}, expected {reference!r}")


def check_moments(payload: dict, n: int, problems: list) -> None:
    """`moments` has no pass flag: compare its table with the closed forms."""
    m = payload["moments"]
    ratio = math.gamma(n / 2.0) / math.gamma((n + 1) / 2.0)
    e_vl = n / math.sqrt(math.pi) * ratio
    expected = {
        "e_vl": e_vl,
        "e_mw": e_vl,
        "e_vl2": 1.0 + 2.0 * (n - 1) / math.pi,
        "e_ar": math.sqrt(math.pi) * (n - 1) * n / 2.0 * ratio,
        "e_ar2": (4.0 * (n - 1) + (n - 2) * (n - 1) * ZETA4
                  + (n - 3) * (n - 2) * (n - 1) / 2.0 * math.pi),
        "zeta_used": ZETA4,
        # n = 3: 3*pi*3F2(-1/2,1/2,3/2;1,2;1) is zeta_3, which equals zeta_4
        "e_mw2": 2.0 / math.pi**2 * (4.0 + ZETA4) if n == 3 else E_MW2_N5,
    }
    if m.get("n") != n:
        problems.append(f"moments n = {m.get('n')}, asked for {n}")
    for key, reference in expected.items():
        if key not in m:
            problems.append(f"moments lacks {key}")
        else:
            _close(m[key], reference, key, problems)


def check_output(name: str, cli_args: list[str], report: dict,
                 seed: int) -> list[str]:
    """Problems with one command's result; empty when it passes."""
    problems: list[str] = []
    if "error" in report:
        problems.append(report["error"])
    elif report["rc"] != 0:
        problems.append(f"exit code {report['rc']}")
    else:
        try:
            report["payload"] = json.loads(report["out"])
            check_payload(report["payload"], cli_args, seed, problems)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"malformed output: {exc!r}")
    return [f"{name}: {p}" for p in problems]


def check_payload(payload: dict, cli_args: list[str], seed: int,
                  problems: list) -> None:
    if cli_args[0] == "moments":
        check_moments(payload, int(cli_args[2]), problems)
    else:
        if payload.get("pass") is not True:
            problems.append("payload pass is not true")
    if cli_args[0] == "constants":
        names = {row["name"] for row in payload["rows"]}
        if not CONSTANT_NAMES <= names:
            problems.append(f"missing rows {sorted(CONSTANT_NAMES - names)}")
        problems += [f"row {row['name']} fails" for row in payload["rows"]
                     if row["pass"] is not True]
    if cli_args[0] == "verify":
        want = {"seed": seed,
                "samples": int(cli_args[cli_args.index("--samples") + 1]),
                "n": 4 if "--octagon" in cli_args
                else int(cli_args[cli_args.index("--n") + 1])}
        problems += [f"{k} = {payload.get(k)}, asked for {v}"
                     for k, v in want.items() if payload.get(k) != v]
        if not payload.get("rows"):
            problems.append("no rows")
        if ("--octagon" in cli_args or want["n"] == 4) \
                and payload.get("hull_pass_rate") != 1.0:
            problems.append(f"hull_pass_rate {payload.get('hull_pass_rate')}")


# ---------------------------------------------------------------------------
# one workload

def cli_args_for(cli_args: list[str], seed: int) -> list[str]:
    extra = ["--seed", str(seed)] if cli_args[0] == "verify" else []
    return [*cli_args, *extra, "--format", "json"]


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    commands, bypass = WORKLOADS[workload]
    run_child(["--help"], trace=False)  # fills the bytecode cache of src/
    before = reference()
    probe = run_child(["--help"], trace=False)
    after = reference()
    if "error" in probe:
        raise SystemExit(f"set-up failed: {probe['error']}")
    imports = [probe["import_s"]]
    import_rel = [probe["import_s"] / between(before, after)["import_s"]]
    ref_totals = [before["total_s"], after["total_s"]]

    first_out: dict[str, str] = {}
    passes: list[dict] = []  # {"traced": bool, "reports": {name: report}}
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds \
            or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        reports = {}
        for name, args in commands:
            before = after
            report = run_child(cli_args_for(args, seed), traced)
            after = reference()
            ref = between(before, after)
            report["ref_s"] = ref["total_s"]
            ref_totals.append(after["total_s"])
            bad = check_output(name, args, report, seed)
            if not bad:
                imports.append(report["import_s"])
                import_rel.append(report["import_s"] / ref["import_s"])
                first_out.setdefault(name, report["out"])
                if report["out"] != first_out[name]:
                    bad.append(f"{name}: output differs between repeats")
                if name == "verify_n6_mt" \
                        and report["out"] != reports["verify_n6_1t"].get("out"):
                    bad.append(f"{name}: output differs from --threads 1")
                bad += [f"{name}: {p}" for p in report.get("problems", [])]
            if report.get("missing"):
                bad.append(f"{name}: not traced, gone from the program: "
                           f"{report['missing']}")
            attempted += 1
            failed += bool(bad)
            problems += bad
            reports[name] = report
        passes.append({"traced": traced, "reports": reports})

    untraced = [p["reports"] for p in passes if not p["traced"]]
    samples = {name: [r[name].get("main_s", math.nan) for r in untraced]
               for name, _ in commands}
    main_s = {name: statistics.median(v) for name, v in samples.items()}
    main_rel = {name: statistics.median(
        r[name].get("main_s", math.nan) / r[name]["ref_s"]
        for r in untraced) for name, _ in commands}
    metrics = {
        "setup_s": REF_IMPORT_S * statistics.median(import_rel),
        "wall_rel": sum(main_rel.values()),
        "peak_rss_mb": max(r.get("maxrss_kb", 0) for p in passes
                           for r in p["reports"].values()) / 1024.0,
        "ops_passed_frac": (attempted - failed) / attempted,
    }
    metrics["cmd.wall_s"] = sum(main_s.values())
    metrics["cmd.ref_s"] = statistics.median(ref_totals)
    metrics["cmd.import_s"] = statistics.median(imports)
    for name, value in main_s.items():
        metrics[f"cmd.{name}_s"] = value
    if "verify_n6_mt" in main_s:
        metrics["cmd.mt_speedup"] = (main_s["verify_n6_1t"]
                                     / main_s["verify_n6_mt"])
    if trace:
        traced = [p["reports"] for p in passes if p["traced"]]
        layers = [layer_metrics(r, commands) for r in traced]
        for key in layers[0]:
            metrics[key] = statistics.median(m[key] for m in layers)
        metrics["trace.overhead_frac"] = (
            metrics.pop("traced_wall_s") / metrics["cmd.wall_s"] - 1.0)
        for span in bypass:
            if metrics[f"{span}.calls"] != 0:
                problems.append(f"bypass: {span} called "
                                f"{metrics[f'{span}.calls']:.0f} times")
        for key, count in EXPECTED_COUNTS.get(workload, {}).items():
            if metrics[key] != count:
                print(f"count moved (program change?): {key} = "
                      f"{metrics[key]:.0f}, recorded {count}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "passes": len(passes), "samples": samples}


def layer_metrics(reports: dict, commands) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    spans: dict[str, dict] = {}
    for report in reports.values():
        for name, values in report.get("spans", {}).items():
            entry = spans.setdefault(name, dict.fromkeys(FIELDS, 0))
            for field, value in zip(FIELDS, values):
                entry[field] += value

    def get(span, field):
        return spans.get(span, {}).get(field, 0)

    out = {key: get(span, field) for key, (span, field) in SPAN_METRICS.items()}
    for span in ("moments.mc_estimate", "moments.mc_octagon"):
        total = get(span, "total_s")
        out[f"{span}.samples_per_s"] = get(span, "work") / total if total else 0.0
    out["functionals.scalar.total_s"] = sum(
        get(f"functionals.{f}", "total_s")
        for f in ("shadow_volume", "shadow_area", "shadow_mean_width"))
    hulls = get("hull.convex_hull_3d", "calls")
    out["hull.ms_per_hull"] = (
        1000.0 * (get("hull.convex_hull_3d", "total_s")
                  + get("hull.mesh_measures", "total_s")) / hulls
        if hulls else 0.0)
    payloads = [r.get("payload", {}) for r in reports.values()]
    rates = [p["hull_pass_rate"] for p in payloads if "hull_pass_rate" in p]
    out["hull.generic_frac"] = statistics.mean(rates) if rates else 0.0
    out["cli.self_s"] = get("cli.main", "self_s")
    out["traced_wall_s"] = sum(reports[name].get("main_s", math.nan)
                               for name, _ in commands)
    return out


# ---------------------------------------------------------------------------
# environment and output

def git_rev() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"git_rev": git_rev(), "src_sha256": src_digest(), "nproc": NPROC,
            "python": sys.version.split()[0],
            **{dist: version(dist) for dist in ("numpy", "scipy", "mpmath")},
            "loadavg_1m": os.getloadavg()[0], "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def declared_units() -> tuple[dict, dict]:
    """BENCHMARK.json's end-to-end and per-layer metrics, name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubeshadow" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"environment": environment(args)}))
    end_to_end, per_layer = declared_units()
    units = {**end_to_end, **per_layer}
    names = per_layer if args.trace else end_to_end
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(f"== {workload}: {run['passes']} passes, "
              f"{run['attempted']} commands, {run['failed']} failed")
        for problem in run["problems"]:
            print(f"   FAIL {problem}")
        for key, value in run["metrics"].items():
            print(f"   {key:44s} {value:14.6g} {units[key]}")
        for name, values in run["samples"].items():
            print(f"   {name} per untraced pass (s): "
                  + " ".join(f"{v:.4g}" for v in values))
        result["correct"] &= not run["problems"]
        result["attempted"] += run["attempted"]
        result["failed"] += run["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        result["metrics"].update(
            {prefix + key: {"value": run["metrics"].get(key, 0.0),
                            "unit": units[key]}
             for key in names})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
