"""One source: every closed-form target the CLI prints is a table entry of
`moments`, and every table entry is printed.

The tables are `moments.CORANK1_TARGETS` (quantity -> value at n, and the n
at which it is known), `moments.OCTAGON_TARGETS` and
`moments.CONSTANT_TARGETS` (row name -> target).  The commands are
`constants --which all`, `verify --n 3/4/5/6`, `verify --octagon` and
`moments --n 3/4/5/6`, run through `cli.main` with --format json.
"""

import contextlib
import io
import json
import math

import pytest

from cubeshadow import cli, moments

DIMENSIONS = (3, 4, 5, 6)
# the `moments` payload's name of each table quantity
PAYLOAD_NAMES = {"e_vl": "vl", "e_vl2": "vl2", "e_ar": "ar", "e_ar2": "ar2",
                 "e_mw": "mw", "e_mw2": "mw2", "e_vl_ar": "vl_ar",
                 "e_vl_mw": "vl_mw", "e_ar_mw": "ar_mw"}


def run_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main([*argv, "--format", "json"])
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def printed():
    """The JSON payload of each command, by (command, n)."""
    payloads = {("constants", None): run_json("constants", "--which", "all")}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "HULL_SAMPLES", 5)
        payloads["octagon", None] = run_json(
            "verify", "--octagon", "--samples", "2000", "--seed", "1")
        for n in DIMENSIONS:
            payloads["verify", n] = run_json(
                "verify", "--n", str(n), "--samples", "2000", "--seed", "1")
    for n in DIMENSIONS:
        payloads["moments", n] = run_json("moments", "--n", str(n))
    return payloads


def table_entry(q, n):
    """Quantity q at dimension n in `CORANK1_TARGETS`, where it is known."""
    value, known = moments.CORANK1_TARGETS[q]
    assert known is None or n in known, (q, n)
    return value(n)


def known_at(n):
    return [q for q, (_, known) in moments.CORANK1_TARGETS.items()
            if known is None or n in known]


def corank1_values(payloads):
    """(quantity, n, value) of every corank-1 target that `verify --n` and
    `moments --n` print."""
    for (command, n), payload in payloads.items():
        if command == "verify":
            for row in payload["rows"]:
                yield row["name"], n, row["closed_form"]
        elif command == "moments":
            values = {**payload["moments"], **payload.get("joint", {})}
            for name, q in PAYLOAD_NAMES.items():
                if name in values:
                    yield q, n, values[name]


def test_constants_targets(printed):
    rows = printed["constants", None]["rows"]
    assert [row["name"] for row in rows] == list(moments.CONSTANT_TARGETS)
    for row in rows:
        assert row["target"] == moments.CONSTANT_TARGETS[row["name"]](), (
            row["name"])


@pytest.mark.parametrize("n", DIMENSIONS)
def test_verify_targets(printed, n):
    rows = printed["verify", n]["rows"]
    assert [row["name"] for row in rows] == known_at(n)
    for row in rows:
        assert row["closed_form"] == table_entry(row["name"], n), row["name"]


def test_octagon_targets(printed):
    rows = printed["octagon", None]["rows"]
    assert [row["name"] for row in rows] == list(moments.OCTAGON_TARGETS)
    for row in rows:
        assert row["closed_form"] == moments.OCTAGON_TARGETS[row["name"]]


@pytest.mark.parametrize("n", DIMENSIONS)
def test_moments_values(printed, n):
    payload = printed["moments", n]
    values = {**payload["moments"], **payload.get("joint", {})}
    assert values.pop("n") == n
    assert values.pop("zeta_used") == moments.ZETA
    assert values.pop("zeta_source") == "identified to 100 digits"
    assert values.pop("extremes") == {
        q: list(r) for q, r in moments.extremes_table(n).items()}
    corr = {name: values.pop(name) for name in list(values)
            if name.startswith("corr_")}
    assert {PAYLOAD_NAMES[name] for name in values} == set(known_at(n))
    for name, value in values.items():
        assert value == table_entry(PAYLOAD_NAMES[name], n), name
    # the correlations are those of the table's moments
    assert set(corr) == ({"corr_vl_ar", "corr_vl_mw", "corr_ar_mw"}
                         if n == 4 else set())
    for name, value in corr.items():
        a, b = name.removeprefix("corr_").split("_")
        sd_a = math.sqrt(table_entry(a + "2", n) - table_entry(a, n) ** 2)
        sd_b = math.sqrt(table_entry(b + "2", n) - table_entry(b, n) ** 2)
        expected = ((table_entry(f"{a}_{b}", n)
                     - table_entry(a, n) * table_entry(b, n)) / (sd_a * sd_b))
        assert value == pytest.approx(expected, rel=1e-14), name


def test_every_entry_is_printed(printed):
    printed_corank1 = {(q, n) for q, n, value in corank1_values(printed)
                       if value == table_entry(q, n)}
    assert printed_corank1 == {(q, n) for n in DIMENSIONS
                               for q in known_at(n)}
    printed_constants = {row["name"]
                         for row in printed["constants", None]["rows"]}
    assert printed_constants == set(moments.CONSTANT_TARGETS)
    assert {row["name"] for row in printed["octagon", None]["rows"]} == set(
        moments.OCTAGON_TARGETS)
