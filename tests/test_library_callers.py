"""The library holds what the commands run: every public name of
`src/cubeshadow` is read somewhere in `src/` outside its own definition.

A module-level name that does not start with "_" is public: a function,
a class or an assigned constant.  It is read when an `ast.Name` loads it,
an `ast.Attribute` names it, or a `from ... import` imports it, in any
module of the package, outside the statement that defines it.  A test-only
reference belongs under `tests/`.  The only exceptions are TRACED_ONLY,
functions that the benchmark's tracer wraps (`perfbench/child.py`'s
TARGETS, read by the loader of `test_trace_targets`) and nothing in `src/`
calls: removing one fails the benchmark.  The list is pinned, so a new
name without a caller fails the test even when the tracer wraps it.
"""

import ast
from pathlib import Path

from test_trace_targets import TARGETS

SRC = Path(__file__).resolve().parents[1] / "src" / "cubeshadow"
TRACED_ONLY = [
    ("functionals", "octagon_perimeter"), ("functionals", "shadow_area"),
    ("functionals", "shadow_mean_width"), ("functionals", "shadow_volume"),
    ("geometry", "build_frame"), ("geometry", "sample_unit_vector"),
    ("hull", "convex_hull_2d"), ("hull", "convex_hull_3d"),
]


def _defined(tree: ast.Module) -> dict:
    """Public module-level name -> the statement that defines it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node
    return {name: node for name, node in names.items()
            if not name.startswith("_")}


def _reads(node: ast.AST) -> set:
    """The names that `node` reads: loaded, taken as attributes, imported."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def uncalled(src: Path = SRC) -> list:
    """(module, name) of each public name that no code in `src` reads
    outside its own definition, sorted."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    # reads per top-level statement, so that a definition's own are dropped
    reads = [(stmt, _reads(stmt)) for tree in trees.values()
             for stmt in tree.body]
    missing = []
    for module, tree in trees.items():
        for name, definition in _defined(tree).items():
            if not any(name in found for stmt, found in reads
                       if stmt is not definition):
                missing.append((module, name))
    return sorted(missing)


def test_every_public_name_has_a_caller_in_src():
    traced = {(module, attr) for _, module, attr, _ in TARGETS}
    assert set(TRACED_ONLY) <= traced
    assert uncalled() == TRACED_ONLY


def test_the_scan_finds_a_name_without_a_caller(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 1\n\n\ndef used():\n    return LIMIT\n\n\n"
        "def alone():\n    return alone\n\n\nclass _Private:\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import used\n\n\ndef main():\n    return used()\n")
    assert uncalled(tmp_path) == [("a", "alone"), ("b", "main")]
