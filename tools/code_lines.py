"""Code lines of Python modules, per module and in total.

    python3 tools/code_lines.py [--rev REV] [PATH ...]

A code line is a physical line that holds at least one token of code, as
`tokenize` reads it: blank lines, comments and docstrings do not count.  A
docstring here is any statement that is a string literal alone (the
module's, a class's or a function's first statement, or a bare string
anywhere else).  A token that spans lines, such as a multi-line string
inside an expression, counts every line it spans.

PATH is a file or a directory, whose *.py files are counted; the default is
src/cubeshadow.  With --rev the files are those of the git revision REV,
read with `git show REV:path`, so the working tree is not touched.  Run
from the root of a checkout.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

DEFAULT_PATHS = ["src/cubeshadow"]
# tokens that hold no code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python source text `source`."""
    lines: set[int] = set()
    statement: list = []  # the code tokens of the current logical line

    def flush():
        # a logical line of string literals alone is a docstring
        if not all(tok.type == tokenize.STRING for tok in statement):
            for tok in statement:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        statement.clear()

    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            flush()
        elif tok.type not in LAYOUT:
            statement.append(tok)
    flush()
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def sources(paths: list[str], rev: str | None) -> dict[str, str]:
    """path -> source text of every *.py file under `paths`, sorted by path,
    from the working tree or, when `rev` is given, from that revision."""
    found = {}
    for path in paths:
        if rev is None:
            p = Path(path)
            files = [p] if p.is_file() else sorted(p.rglob("*.py"))
            found.update((str(f), f.read_text()) for f in files)
        else:
            names = _git("ls-tree", "-r", "--name-only", rev, "--",
                         path).split()
            found.update((name, _git("show", f"{rev}:{name}"))
                         for name in names if name.endswith(".py"))
    return dict(sorted(found.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=DEFAULT_PATHS)
    parser.add_argument("--rev", default=None,
                        help="count the files of this git revision")
    args = parser.parse_args(argv)
    counts = {path: code_lines(text)
              for path, text in sources(args.paths, args.rev).items()}
    if not counts:
        print("no Python files found", file=sys.stderr)
        return 1
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
