"""Golden outputs: the bytes that each command of a fixed matrix writes.

    python3 tools/golden.py [--update]

MATRIX names each command once.  Each runs in this process through
`cubeshadow.cli.main`, at one Monte Carlo worker, and its exit code,
stderr and stdout are written as one text, `render`'s, to
tests/golden/<name>.txt.  Without --update the texts are compared with
those files, and the names of the commands whose bytes moved are printed;
the exit code is 1 when one moved or a file is missing or left over.  With
--update the files are rewritten, the moved names printed, and the exit
code is 0.  `tests/test_golden.py` compares the same texts byte for byte.
Run from the root of a checkout; the package is imported from its src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_MC = ("--samples", "70000", "--seed", "5", "--threads", "1")


def _matrix() -> dict:
    """Command name -> CLI arguments: every command in every --format, the
    OFF dumps of three seeds and two rejected arguments."""
    commands = {}
    for fmt in ("json", "csv", "text"):
        for n in (3, 4, 6, 12):
            commands[f"verify_n{n}.{fmt}"] = (
                "verify", "--n", str(n), *_MC, "--format", fmt)
        commands[f"verify_octagon.{fmt}"] = (
            "verify", "--octagon", *_MC, "--format", fmt)
        for n in (3, 4, 5, 6):
            commands[f"moments_n{n}.{fmt}"] = (
                "moments", "--n", str(n), "--format", fmt)
        commands[f"constants_all.{fmt}"] = (
            "constants", "--which", "all", "--format", fmt)
    for seed in (1, 9, 11):
        commands[f"hull_dump_seed{seed}"] = ("hull-dump", "--seed", str(seed))
    commands["moments_n2"] = ("moments", "--n", "2")
    commands["verify_n343"] = ("verify", "--n", "343", *_MC)
    return commands


MATRIX = _matrix()


def command_line(name: str) -> str:
    return " ".join(("cubeshadow", *MATRIX[name]))


def render(name: str) -> str:
    """The command line, exit code, stderr and stdout of command `name`."""
    from cubeshadow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(MATRIX[name]))
    return (f"$ {command_line(name)}\nexit {code}\n"
            f"--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}")


def path(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden files")
    args = parser.parse_args(argv)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    moved = []
    for name in MATRIX:
        text, file = render(name), path(name)
        if not file.is_file() or file.read_bytes() != text.encode():
            moved.append(name)
            print(f"moved: {name}  ({command_line(name)})")
            if args.update:
                file.write_bytes(text.encode())
    stale = sorted(set(GOLDEN.glob("*.txt")) - {path(name) for name in MATRIX})
    for file in stale:
        print(f"left over: {file.name}")
        if args.update:
            file.unlink()
    return 0 if args.update or not (moved or stale) else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
