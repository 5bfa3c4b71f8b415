"""Command-line front end.

Subcommands: moments, verify, constants, octagon, hull-dump.  Exit codes:
0 success, 1 numeric verification failure, 2 usage error.  A usage error is
argparse's (--samples or --threads below 1, a --tol that is not a finite
number >= 0, verify given both --n and --octagon) or a
`geometry.DomainError`: the library's one argument error (--n outside
3..342), or an --out file that cannot be opened.  `main` writes it to
stderr as one "error: <message>" line.
--seed is taken only by the commands it drives (verify, octagon,
hull-dump), and --format only by those with more than one output format
(all but hull-dump, which writes OFF text).  --threads is the number of
Monte Carlo workers, forked processes when more than one; it defaults to
the number of CPUs this process may use, and never changes an output byte.

Each command builds its result once, as three things: a JSON payload, a
list of row dicts and text lines.  `_write` picks one by --format.  The CSV
header is the keys of the first row; a string cell is written as it is and
any other value by repr, so every float round-trips.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import geometry, hull, moments, quad


def _emit(text: str, out_path: str | None) -> None:
    """Write text to the file out_path, or to stdout when it is None; a
    file that cannot be opened is a usage error (`geometry.DomainError`)."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        fh = open(out_path, "w")
    except OSError as exc:
        raise geometry.DomainError(
            f"cannot open --out {out_path}: {exc.strerror}") from None
    with fh:
        fh.write(text)


def _write(args, payload: dict, rows: list[dict], text: list[str],
           note: str | None = None) -> None:
    """Write a command's result in --format to --out or stdout.

    `note` goes to stderr in json and csv, which carry no verdict line.
    """
    if args.format == "json":
        out = moments.json_text(payload)
    elif args.format == "csv":
        out = "".join(",".join(c if isinstance(c, str) else repr(c)
                               for c in cells) + "\n"
                      for cells in [rows[0].keys(), *map(dict.values, rows)])
    else:
        out, note = "\n".join(text) + "\n", None
    _emit(out, args.out)
    if note:
        print(note, file=sys.stderr)


def _value_rows(values: dict) -> list[dict]:
    return [{"name": k, "value": v} for k, v in values.items()
            if isinstance(v, (int, float))]


_VALUE_LINE = "  {name:12s} {value!r}"


def cmd_moments(args) -> int:
    table = moments.closed_form_table(args.n)
    payload = {"spec_version": moments.SPEC_VERSION,
               "moments": table.as_dict()}
    rows = _value_rows(payload["moments"])
    text = [f"closed-form moments, n={args.n}",
            *map(_VALUE_LINE.format_map, rows),
            f"  zeta source: {table.zeta_source}"]
    text += [f"  {name} range   [{lo!r}, {hi!r}]"
             for name, (lo, hi) in table.extremes.items()]
    joint = moments.joint_table(args.n)
    if joint:
        payload["joint"] = joint
        joint_rows = _value_rows(joint)
        rows += joint_rows
        text += map(_VALUE_LINE.format_map, joint_rows)
    _write(args, payload, rows, text)
    return 0


def cmd_verify(args) -> int:
    if args.octagon:
        report = moments.octagon_report(args.samples, args.seed,
                                        threads=args.threads)
    else:
        report = moments.verify_report(args.n, args.samples, args.seed,
                                       threads=args.threads)
    payload = report.as_dict()
    text = [f"verify n={report.n} samples={report.samples} seed={report.seed}"]
    for r in report.rows:
        text.append(f"  {r.name:12s} closed={r.closed_form:<20.15g} "
                    f"est={r.estimate:<20.15g} z={r.z:+.2f} "
                    f"{'PASS' if r.passed else 'FAIL'}")
    if report.hull_pass_rate is not None:
        text.append(f"  hull cross-check pass rate {report.hull_pass_rate:.3f}"
                    f" (max dev {report.hull_max_deviation:.3g})")
    text.append("PASS" if report.passed else "FAIL")
    failing = [r.name for r in report.rows if not r.passed]
    # csv writes z as a float (inf at stderr 0), json as null
    _write(args, payload, list(map(vars, report.rows)), text,
           note=None if report.passed else f"FAIL rows: {failing}")
    return 0 if report.passed else 1


def _constants_entries(which: str) -> list[tuple[str, float, float]]:
    """(name, computed, target) triples for the requested constant suite;
    each target is the row's in `moments.CONSTANT_TARGETS`."""
    computed: dict[str, float] = {}
    if which in ("zeta4", "all"):
        computed["zeta4"] = quad.zeta4_quadrature()
    if which in ("zeta3", "all"):
        computed["zeta3_integral"] = quad.zeta3_quadrature()
        computed["zeta3_3f2"] = quad.zeta3_3f2()
    if which in ("zeta5", "all"):
        computed["zeta5_reduction"] = quad.zeta5_reduction_check()
    if which in ("pi128", "all"):
        suite = quad.pi_over_128_suite()
        computed.update(pi128_first=suite.first.value,
                        pi128_second=suite.second.value,
                        pi128_third=suite.third.value,
                        pi128_combination=suite.combination)
    if which in ("moments", "all"):
        for name, result in quad.moment_integral_suite().items():
            computed[f"integral_{name}"] = result.value
    return [(name, value, moments.CONSTANT_TARGETS[name]())
            for name, value in computed.items()]


def cmd_constants(args) -> int:
    rows = []
    for name, computed, target in _constants_entries(args.which):
        disc = abs(computed - target)
        rows.append({"name": name, "computed": computed, "target": target,
                     "discrepancy": disc, "pass": disc <= args.tol})
    ok = all(r["pass"] for r in rows)
    text = [f"  {r['name']:24s} computed={r['computed']:<22.16g}"
            f" target={r['target']:<22.16g}"
            f" disc={r['discrepancy']:.3g} {'PASS' if r['pass'] else 'FAIL'}"
            for r in rows]
    text.append("PASS" if ok else "FAIL")
    _write(args, {"spec_version": moments.SPEC_VERSION, "tolerance": args.tol,
                  "rows": rows, "pass": ok}, rows, text)
    return 0 if ok else 1


def cmd_hull_dump(args) -> int:
    u = geometry.sample_unit_vectors(4, 1, geometry.stream(args.seed))[:, 0]
    _emit(hull.to_off(hull.shadow_hulls(u[None])), args.out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # argparse's own wording for type=float
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}")
    return value


_OPTIONS = {
    "--seed": {"type": int, "default": 1},
    "--format": {"choices": ["json", "csv", "text"], "default": "text"},
    "--out": {"default": None, "help": "write output to a file"},
    "--samples": {"type": _positive_int, "default": 100_000},
    "--threads": {"type": _positive_int,
                  "default": len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else 1},
}
_MONTE_CARLO = ("--seed", "--format", "--out", "--samples", "--threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeshadow",
        description="Shadows of the 4-cube: closed-form moments, "
                    "analytic constants and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *names):
        for name in names:
            p.add_argument(name, **_OPTIONS[name])

    p = sub.add_parser("moments", help="closed-form moment tables")
    p.add_argument("--n", type=int, default=4)
    options(p, "--format", "--out")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verify", help="Monte Carlo vs closed forms")
    shape = p.add_mutually_exclusive_group()
    # a string default is parsed by `type` only when --n is absent, so an
    # explicit --n 4 is not taken for the default and conflicts too
    shape.add_argument("--n", type=int, default="4")
    shape.add_argument("--octagon", action="store_true",
                       help="verify the rank-2 octagon instead")
    options(p, *_MONTE_CARLO)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("octagon", help="rank-2 octagon verification")
    options(p, *_MONTE_CARLO)
    p.set_defaults(func=cmd_verify, octagon=True, n=4)

    p = sub.add_parser("constants", help="analytic-constant quadrature suites")
    p.add_argument("--which",
                   choices=["zeta3", "zeta4", "zeta5", "pi128", "moments", "all"],
                   default="all")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    options(p, "--format", "--out")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("hull-dump", help="dump one sampled shadow as OFF text")
    options(p, "--seed", "--out")
    p.set_defaults(func=cmd_hull_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except geometry.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
