import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubeshadow
from cubeshadow import cli


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


class TestVerify:
    def test_json_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4",
                               "--samples", "100000", "--seed", "25",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["spec_version"] == cli.SPEC_VERSION

    def test_byte_identical_across_runs_and_threads(self, capsys, tmp_path):
        paths = [tmp_path / f"r{i}.json" for i in range(3)]
        for path, threads in zip(paths, ("1", "1", "4")):
            code, _, _ = run_cli(capsys, "verify", "--samples", "200000",
                                 "--seed", "25", "--threads", threads,
                                 "--format", "json", "--out", str(path))
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_n2_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2")
        assert code == 2
        assert "error" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "100000",
                               "--seed", "25")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "hull cross-check pass rate 1.000" in out

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

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "zeta4",
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
    # wheel on x86-64).
    OFF_SEED9_SHA256 = (
        "bc07b20b10b9bf0d9aefb9f0ce0a62d3c6e2608348f4a3ed495c101c8827e0bd")
    OFF_SEED9_FACES = ["4 11 12 9 7", "4 0 3 11 7", "4 0 1 4 3", "4 12 13 10 9",
                       "4 7 8 1 0", "4 9 10 8 7", "4 8 10 2 1", "4 1 2 6 4",
                       "4 10 13 6 2", "4 3 5 12 11", "4 5 6 13 12", "4 3 4 6 5"]

    def test_off_bytes_pinned(self, capsys):
        out = run_cli(capsys, "hull-dump", "--seed", "9")[1]
        assert out.strip().split("\n")[-12:] == self.OFF_SEED9_FACES
        assert hashlib.sha256(out.encode()).hexdigest() == self.OFF_SEED9_SHA256

    def test_seed_determinism(self, capsys):
        a = run_cli(capsys, "hull-dump", "--seed", "9")[1]
        b = run_cli(capsys, "hull-dump", "--seed", "9")[1]
        c = run_cli(capsys, "hull-dump", "--seed", "10")[1]
        assert a == b
        assert a != c


def test_import_does_not_load_mpmath():
    src = str(Path(cubeshadow.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys, cubeshadow.cli; sys.exit('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
