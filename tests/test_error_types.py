"""One error type per concept.

`src/cubeshadow` defines three exception classes: `geometry.DomainError`,
the one error of an argument check, `specfun.ConvergenceError`, a series
or quadrature that does not reach its accuracy, and `hull.FlatInputError`,
a hull that the oracle cannot build.  It raises no built-in exception
type, and every `raise ...DomainError(...)` in it is reached by one call
below, whose message is pinned.
"""

import ast
import builtins
import importlib
import math
import os
from pathlib import Path

import numpy as np
import pytest

from cubeshadow import cli, functionals, geometry, moments, quad, specfun

SRC = Path(__file__).resolve().parents[1] / "src" / "cubeshadow"
TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(SRC.glob("*.py"))}
BUILTIN_ERRORS = {name for name, value in vars(builtins).items()
                  if isinstance(value, type)
                  and issubclass(value, BaseException)}


def _name(node: ast.AST) -> str | None:
    """The name that a Name or an Attribute node ends in."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def exception_classes(trees: dict = TREES) -> set:
    """The classes of `trees` derived, directly or through one another,
    from a built-in exception type."""
    bases = {node.name: {_name(b) for b in node.bases}
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    found: set = set()
    while True:
        more = {name for name, names in bases.items()
                if names & (BUILTIN_ERRORS | found)} - found
        if not more:
            return found
        found |= more


def raised_names(trees: dict = TREES) -> list:
    """(file, first line, last line, X) of every `raise X(...)` or
    `raise X` in `trees`, sorted."""
    sites = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else (
                    node.exc)
                sites.append((file, node.lineno, node.end_lineno,
                              _name(exc)))
    return sorted(sites)


def test_src_defines_three_exception_classes():
    assert exception_classes() == {
        "DomainError", "ConvergenceError", "FlatInputError"}
    assert issubclass(geometry.DomainError, ValueError)
    for module, name in [("geometry", "DimensionError"),
                         ("geometry", "OrthogonalityError"),
                         ("specfun", "DomainError"), ("hull", "Polygon2D")]:
        assert not hasattr(importlib.import_module(f"cubeshadow.{module}"),
                           name), (module, name)


def test_src_raises_no_builtin_exception():
    assert [site for site in raised_names()
            if site[3] in BUILTIN_ERRORS] == []


def test_the_scan_finds_a_builtin_raise_and_a_derived_class():
    trees = {"a.py": ast.parse(
        "class A(ValueError):\n    pass\n\n\nclass B(A):\n    pass\n\n\n"
        "def f(x):\n    if x:\n        raise ValueError(x)\n"
        "    raise B(x)\n")}
    assert exception_classes(trees) == {"A", "B"}
    assert raised_names(trees) == [("a.py", 11, 11, "ValueError"),
                                   ("a.py", 12, 12, "B")]


# One call per raise site of DomainError, with the message it raises.
DOMAIN_ERRORS = [
    (lambda: geometry.sample_unit_vectors(1, 5, geometry.stream(0)),
     "need n >= 2, got 1"),
    (lambda: geometry.sample_unit_vectors(4, -1, geometry.stream(0)),
     "need count >= 0, got -1"),
    (lambda: geometry.build_frames(np.ones((2, 1))), "need n >= 2, got 1"),
    (lambda: geometry.checked_pair([1, 0, 0, 0], [1, 0, 0, 0]),
     "|u.v| = 1.0 exceeds 1e-10"),
    (lambda: functionals.shadow_batch(np.array([[0.6], [0.8]])),
     "need n >= 3, got 2"),
    (lambda: functionals.segment_mw_coeff(1), "need d >= 2, got 1"),
    (lambda: moments.closed_form_table(2), "need 3 <= n <= 342, got 2"),
    (lambda: moments.mc_estimate(4, 0, seed=1), "samples must be >= 1"),
    (lambda: moments.mc_octagon(10, seed=1, threads=0),
     "threads must be >= 1"),
    (lambda: moments.hull_cross_check(0, seed=1), "samples must be >= 1"),
    (lambda: quad.integrate_1d(lambda t: t, 0, 1, weight=(-1.0, 0.0)),
     "weight exponents must exceed -1, got (-1.0, 0.0)"),
    (lambda: quad.integrate_1d(lambda t: t, 0, 1, tol=0.0),
     "tol must be positive"),
    (lambda: quad.integrate_1d(lambda t: t, 0, math.inf, weight=(0.5, 0.0)),
     "an algebraic weight needs a finite interval"),
    (lambda: specfun.elliptic_imag(-0.5), "need finite t >= 0, got -0.5"),
    (lambda: specfun.hyp3f2_unit(0.5, 0.5, 0.5, -1.0, 2.0),
     "lower parameter -1.0 is a nonpositive integer"),
    (lambda: specfun.hyp3f2_unit(-0.5, -0.5, -0.5, 1.0, 1.0),
     "3F2(-0.5, -0.5, -0.5; 1.0, 1.0; 1) has no upper parameter a3 and "
     "lower parameter b2 with b2 > a3 > 0"),
    # the dimension check of the Monte Carlo entry points
    (lambda: moments.mc_estimate(2, 10, seed=1), "need 3 <= n <= 342, got 2"),
    (lambda: moments.mc_estimate(-1, 10, seed=1),
     "need 3 <= n <= 342, got -1"),
    (lambda: moments.verify_report(2, 10, seed=1),
     "need 3 <= n <= 342, got 2"),
    # a NaN tolerance, which compares false with any bound
    (lambda: quad.integrate_1d(lambda t: t, 0, 1, tol=math.nan),
     "tol must be positive"),
    # an interval bound that is NaN, or infinite where it may not be
    (lambda: quad.integrate_1d(lambda t: t, 0, math.nan),
     "need a finite a and a finite or +inf b, got (0, nan)"),
    (lambda: quad.integrate_1d(lambda t: t, -math.inf, 0),
     "need a finite a and a finite or +inf b, got (-inf, 0)"),
    # an --out file that cannot be opened
    (lambda: cli._emit("", os.devnull + "/out.txt"),
     f"cannot open --out {os.devnull}/out.txt: Not a directory"),
]


def test_domain_error_at_every_raise_site():
    """Each call raises `geometry.DomainError` with its message unchanged,
    and the raises they reach are every DomainError raise of `src`."""
    reached = set()
    for call, message in DOMAIN_ERRORS:
        with pytest.raises(geometry.DomainError) as exc:
            call()
        assert str(exc.value) == message
        tb = exc.value.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        reached.add((Path(tb.tb_frame.f_code.co_filename).name,
                     tb.tb_lineno))
    sites = [site for site in raised_names() if site[3] == "DomainError"]
    assert sites
    unreached = [site for site in sites
                 if not any(file == site[0] and site[1] <= line <= site[2]
                            for file, line in reached)]
    assert unreached == []
