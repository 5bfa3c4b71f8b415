"""Command-line front end.

Subcommands: moments, verify, constants, octagon, hull-dump.  Exit codes:
0 success, 1 numeric verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import functionals, geometry, hull, moments, quad

SPEC_VERSION = moments.SPEC_VERSION


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_moments(args) -> int:
    if args.n < 3:
        print(f"error: --n must be >= 3, got {args.n}", file=sys.stderr)
        return 2
    table = moments.closed_form_table(args.n)
    payload = {"spec_version": SPEC_VERSION, "moments": table.as_dict()}
    if args.n == 4:
        payload["joint"] = moments.joint_moment_table().as_dict()
    if args.format == "json":
        _emit(_json_dump(payload), args.out)
    elif args.format == "csv":
        lines = ["name,value"]
        for key, value in table.as_dict().items():
            if isinstance(value, (int, float)):
                lines.append(f"{key},{value!r}")
        if args.n == 4:
            for key, value in moments.joint_moment_table().as_dict().items():
                lines.append(f"{key},{value!r}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"closed-form moments, n={args.n}"]
        for key, value in table.as_dict().items():
            if isinstance(value, (int, float)):
                lines.append(f"  {key:12s} {value!r}")
        lines.append(f"  zeta source: {table.zeta_source}")
        for name, (lo, hi) in table.extremes.items():
            lines.append(f"  {name} range   [{lo!r}, {hi!r}]")
        if args.n == 4:
            for key, value in moments.joint_moment_table().as_dict().items():
                lines.append(f"  {key:12s} {value!r}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    if args.octagon:
        report = moments.octagon_report(args.samples, args.seed,
                                        threads=args.threads)
    else:
        if args.n < 3:
            print(f"error: --n must be >= 3, got {args.n}", file=sys.stderr)
            return 2
        report = moments.verify_report(args.n, args.samples, args.seed,
                                       threads=args.threads)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    elif args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        lines = [f"verify n={report.n} samples={report.samples} seed={report.seed}"]
        for r in report.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  {r.name:12s} closed={r.closed_form:<20.15g} "
                         f"est={r.estimate:<20.15g} z={r.z:+.2f} {status}")
        if report.hull_pass_rate is not None:
            lines.append(f"  hull cross-check pass rate {report.hull_pass_rate:.3f}"
                         f" (max dev {report.hull_max_deviation:.3g})")
        lines.append("PASS" if report.passed else "FAIL")
        _emit("\n".join(lines) + "\n", args.out)
    if not report.passed:
        if args.format != "text":
            failing = [r.name for r in report.rows if not r.passed]
            print(f"FAIL rows: {failing}", file=sys.stderr)
        return 1
    return 0


def _constants_entries(which: str) -> list[tuple[str, float, float]]:
    """(name, computed, target) triples for the requested constant suite."""
    entries: list[tuple[str, float, float]] = []
    pi = math.pi
    if which in ("zeta4", "all"):
        entries.append(("zeta4", quad.zeta4_quadrature(), 7.118558716719735))
    if which in ("zeta3", "all"):
        z3 = quad.zeta3_quadrature()
        entries.append(("zeta3_integral", z3, quad.zeta4_quadrature()))
        entries.append(("zeta3_3f2", moments.zeta_n(3)[0], z3))
    if which in ("zeta5", "all"):
        entries.append(("zeta5_reduction", quad.zeta5_reduction_check(),
                        quad.zeta4_quadrature()))
    if which in ("pi128", "all"):
        suite = quad.pi_over_128_suite()
        entries.append(("pi128_first", suite.first.value, pi / 96.0))
        entries.append(("pi128_second", suite.second.value, pi / 256.0))
        entries.append(("pi128_third", suite.third.value, pi / 192.0))
        entries.append(("pi128_combination", suite.combination, pi / 128.0))
    if which in ("moments", "all"):
        for entry in quad.moment_integral_suite():
            entries.append((f"integral_{entry.name}", entry.numeric.value,
                            entry.closed_form))
    return entries


def cmd_constants(args) -> int:
    entries = _constants_entries(args.which)
    rows = []
    ok = True
    for name, computed, target in entries:
        disc = abs(computed - target)
        passed = disc <= args.tol
        ok = ok and passed
        rows.append({"name": name, "computed": computed, "target": target,
                     "discrepancy": disc, "pass": passed})
    if args.format == "json":
        _emit(_json_dump({"spec_version": SPEC_VERSION, "tolerance": args.tol,
                          "rows": rows, "pass": ok}), args.out)
    elif args.format == "csv":
        lines = ["name,computed,target,discrepancy,pass"]
        for r in rows:
            lines.append(f"{r['name']},{r['computed']!r},{r['target']!r},"
                         f"{r['discrepancy']!r},{r['pass']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = []
        for r in rows:
            status = "PASS" if r["pass"] else "FAIL"
            lines.append(f"  {r['name']:24s} computed={r['computed']:<22.16g}"
                         f" target={r['target']:<22.16g}"
                         f" disc={r['discrepancy']:.3g} {status}")
        lines.append("PASS" if ok else "FAIL")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_hull_dump(args) -> int:
    rng = geometry.stream(args.seed)
    u = geometry.sample_unit_vector(4, rng)
    mesh = hull.convex_hull_3d(
        geometry.project_vertices(geometry.build_frame(u)))
    _emit(hull.to_off(mesh), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeshadow",
        description="Shadows of the 4-cube: closed-form moments, "
                    "analytic constants and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=True):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        if samples:
            p.add_argument("--samples", type=int, default=100_000)
            p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("moments", help="closed-form moment tables")
    p.add_argument("--n", type=int, default=4)
    common(p, samples=False)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verify", help="Monte Carlo vs closed forms")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--octagon", action="store_true",
                   help="verify the rank-2 octagon instead")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("octagon", help="rank-2 octagon verification")
    common(p)
    p.set_defaults(func=lambda a: cmd_verify(
        argparse.Namespace(**{**vars(a), "octagon": True, "n": 4})))

    p = sub.add_parser("constants", help="analytic-constant quadrature suites")
    p.add_argument("--which",
                   choices=["zeta3", "zeta4", "zeta5", "pi128", "moments", "all"],
                   default="all")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p, samples=False)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("hull-dump", help="dump one sampled shadow as OFF text")
    common(p, samples=False)
    p.set_defaults(func=cmd_hull_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (moments.DimensionError, geometry.DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
