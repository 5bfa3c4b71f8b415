"""Alternating parent/change pairs of the benchmark, written as BENCH_<label>.json.

    python3 tools/bench_pairs.py --label LABEL --parent REV [--change REV] \
        --workload NAME=PAIRS [--workload NAME=PAIRS ...] \
        [--describe TEXT] [--note TEXT]
    python3 tools/bench_pairs.py --check BENCH_*.json

Run from the root of a checkout.  The committed files of both revisions are
extracted with `git archive` into fresh temporary directories (so that an
interrupted run leaves nothing behind in the repository), and each runs its
own `perfbench/run.py --workload NAME --seed S --seconds 10` there; every
record uses that one run length.
Pair i of the j-th workload uses seed 101 + 100 j + i on both sides; it runs
the parent first when i is even and the change first when i is odd.  The
end-to-end metrics, and whether each is better lower or higher, come from
BENCHMARK.json.  The summary gives per side the median and quartiles
(`statistics.quantiles`, inclusive method) and the number of pairs in which
the change reads better.

--check reads written files and fails unless both revisions are named, every
pair reads `correct: true` on both sides, and every summary median and
quartile equals the one recomputed from the pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 10  # run length of every run.py call


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True,
                          capture_output=True).stdout


def extract(rev: str, into: Path) -> str:
    """The committed files of `rev` under `into`; returns the full rev."""
    full = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    subprocess.run(["tar", "-x", "-C", str(into)], check=True,
                   input=git("archive", "--format=tar", full))
    return full


def run_side(tree: Path, workload: str, seed: int) -> tuple:
    """(environment, result) of one run.py call in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, better: dict) -> dict:
    summary = {}
    for name, direction in better.items():
        side = {s: [p[name][s] for p in pairs] for s in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        summary[name] = {
            **{s: quartiles(side[s]) for s in SIDES},
            "change_better_pairs": sum(
                sign * (c - p) < 0 for p, c in zip(side["parent"],
                                                   side["change"])),
            "pairs": len(pairs),
        }
    return summary


def measure(args) -> dict:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w.split("=") for w in args.workload]
    out = {"label": args.label, "change": args.describe,
           "command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {SECONDS}",
           "pairs_order": "pair i runs the parent first when i is even, "
                          "the change first when i is odd",
           "revs": {}, "workloads": {}, "environment": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            trees[side] = Path(tmp) / side
            trees[side].mkdir()
            out["revs"][side] = extract(rev, trees[side])
        digests = {}
        for j, (workload, count) in enumerate(workloads):
            pairs = []
            for i in range(int(count)):
                seed = 101 + 100 * j + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs = {}
                for side in order:
                    env, runs[side] = run_side(trees[side], workload, seed)
                    digests[side] = env["src_sha256"]
                    out["environment"].update(
                        {k: env[k] for k in ("nproc", "python", "numpy",
                                             "scipy")})
                pair = {"pair": i, "seed": seed,
                        "correct": {s: runs[s]["correct"] for s in SIDES}}
                for name in better:
                    pair[name] = {s: runs[s]["metrics"][name]["value"]
                                  for s in SIDES}
                pairs.append(pair)
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{name} {pair[name]['parent']:.4g} -> "
                    f"{pair[name]['change']:.4g}" for name in better),
                    flush=True)
            out["workloads"][workload] = {"pairs": pairs,
                                          "summary": summarize(pairs, better)}
        out["environment"]["src_sha256"] = digests
    if args.note:
        out["note"] = args.note
    return out


def check(path: Path) -> list:
    """What is wrong with one BENCH_*.json file."""
    data = json.loads(path.read_text())
    problems = [f"revs.{s} missing" for s in SIDES
                if not data.get("revs", {}).get(s)]
    for workload, entry in data["workloads"].items():
        pairs = entry["pairs"]
        for p in pairs:
            problems += [f"{workload} pair {p['pair']}: {s} not correct"
                         for s in SIDES if p["correct"][s] is not True]
        for name, summary in entry["summary"].items():
            if summary["pairs"] != len(pairs):
                problems.append(f"{workload} {name}: {summary['pairs']} "
                                f"pairs recorded, {len(pairs)} present")
            for s in SIDES:
                recomputed = quartiles([p[name][s] for p in pairs])
                problems += [f"{workload} {name} {s} {q}: recorded "
                             f"{summary[s][q]}, recomputed {value}"
                             for q, value in recomputed.items()
                             if summary[s][q] != value]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="+", type=Path, metavar="FILE")
    parser.add_argument("--label")
    parser.add_argument("--parent")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME=PAIRS")
    parser.add_argument("--describe", default="")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    if args.check:
        failed = False
        for path in args.check:
            problems = check(path)
            failed |= bool(problems)
            print(f"{path}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"   {problem}")
        return int(failed)
    if not (args.label and args.parent and args.workload):
        parser.error("--label, --parent and --workload are needed to measure")
    result = measure(args)
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
