import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import intpoints
from intpoints.cli import main
from intpoints.pointset import (
    DistanceMatrix,
    EmbeddedPointSet,
    distances_from_embedding,
    pointset_characteristic,
)

from .oracles import brute_force_mod_max


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestVerifyCommand:
    def test_heptagon1(self, capsys, heptagon1_file):
        rc, out, _ = run(capsys, "verify", str(heptagon1_file))
        assert rc == 0
        assert "diameter=22270 characteristic=2002" in out
        assert "overall: pass" in out

    def test_heptagon2(self, capsys, heptagon2_file):
        rc, out, _ = run(capsys, "verify", str(heptagon2_file))
        assert rc == 0
        assert "diameter=66810" in out

    def test_json_report(self, capsys, heptagon1_file):
        rc, out, _ = run(capsys, "verify", "--json", str(heptagon1_file))
        assert rc == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["characteristic"] == 2002
        assert payload["canonical"]["passed"] is True

    def test_non_symmetric_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n0 1\n2 0\n")
        rc, _, err = run(capsys, "verify", str(bad))
        assert rc == 2
        assert "asymmetric" in err

    def test_failing_matrix_exits_1(self, capsys, tmp_path):
        collinear = tmp_path / "collinear.txt"
        collinear.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        rc, out, _ = run(capsys, "verify", str(collinear))
        assert rc == 1
        assert "overall: FAIL" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
        assert rc == 2


class TestEmbedCommand:
    def test_text_format(self, capsys, heptagon1_file):
        rc, out, _ = run(capsys, "embed", str(heptagon1_file))
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "(0/1, 0/1 sqrt(2002))"
        assert lines[3] == "(245363/17, 3144/17 sqrt(2002))"
        assert lines[6] == "(19079044/2227, -54168/2227 sqrt(2002))"

    def test_json_format_roundtrip(self, capsys, heptagon1_file, heptagon1):
        rc, out, _ = run(capsys, "embed", "--format", "json", str(heptagon1_file))
        assert rc == 0
        payload = json.loads(out)
        assert payload["radicand"] == 2002
        pts = tuple(
            (Fraction(p["x"]), Fraction(p["y"]["coeff"])) for p in payload["points"]
        )
        rebuilt = EmbeddedPointSet(payload["radicand"], pts)
        assert distances_from_embedding(rebuilt) == heptagon1

    def test_triangle(self, capsys, tmp_path):
        f = tmp_path / "tri.txt"
        f.write_text("3\n0 5 4\n5 0 3\n4 3 0\n")
        rc, out, _ = run(capsys, "embed", str(f))
        assert rc == 0
        assert out.strip().splitlines() == [
            "(0/1, 0/1 sqrt(1))",
            "(5/1, 0/1 sqrt(1))",
            "(16/5, 12/5 sqrt(1))",
        ]

    def test_unrealizable_exits_1(self, capsys, tmp_path, heptagon1):
        rows = [list(r) for r in heptagon1.rows]
        rows[5][6] = rows[6][5] = 10745
        f = tmp_path / "perturbed.txt"
        f.write_text(DistanceMatrix(rows).to_text())
        rc, _, err = run(capsys, "embed", str(f))
        assert rc == 1
        assert "not realizable" in err


class TestSearchCommand:
    def test_unit_triangle(self, capsys):
        rc, out, _ = run(capsys, "search", "--n", "3", "--dmax", "1")
        assert rc == 0
        rec = json.loads(out.strip())
        assert rec["matrix"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert rec["diameter"] == 1
        assert rec["characteristic"] == 3

    def test_heptagon_search(self, capsys, heptagon1):
        rc, out, _ = run(
            capsys,
            "search", "--n", "7", "--dmin", "22270", "--dmax", "22270", "--char", "2002",
        )
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 1
        assert records[0]["matrix"] == [list(r) for r in heptagon1.rows]
        assert records[0]["points"][3] == {
            "x": "245363/17",
            "y": {"coeff": "3144/17", "radicand": 2002},
        }

    def test_n5_min_diameter_window(self, capsys):
        rc, out, _ = run(capsys, "search", "--n", "5", "--dmin", "1", "--dmax", "73")
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records, "expected a 5-point set at diameter 73"
        assert {r["diameter"] for r in records} == {73}

    def test_bad_char_flag_exits_2(self, capsys):
        rc, _, err = run(capsys, "search", "--n", "4", "--dmax", "10", "--char", "12")
        assert rc == 2
        assert "square-free" in err

    def test_conflicting_cluster_flag_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "search", "--n", "4", "--dmax", "10", "--char", "3", "--cluster"
        )
        assert rc == 2

    def test_bad_shard_exits_2(self, capsys):
        rc, _, err = run(capsys, "search", "--n", "4", "--dmax", "10", "--shard", "nope")
        assert rc == 2

    def test_checkpoint_roundtrip(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        rc, out, _ = run(
            capsys, "search", "--n", "4", "--dmin", "8", "--dmax", "8", "--resume", str(ck)
        )
        assert rc == 0
        assert out.strip()
        rc, out, _ = run(
            capsys, "search", "--n", "4", "--dmin", "8", "--dmax", "8", "--resume", str(ck)
        )
        assert rc == 0
        assert not out.strip()  # everything done already

    def test_resume_directory_exits_2(self, capsys, tmp_path):
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "8", "--resume", str(tmp_path))
        assert rc == 2
        assert not out
        assert "checkpoint" in err

    def test_resume_malformed_checkpoint_exits_2(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        ck.write_text("8 1\n8 x\n")
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "8", "--resume", str(ck))
        assert rc == 2
        assert not out
        assert "line 2" in err

    def test_resume_ignores_unterminated_last_line(self, capsys, tmp_path):
        # key (8, 1) holds the only 4-set at d = 8; a torn line must not mark it done
        ck = tmp_path / "ck"
        ck.write_text("8 1")
        rc, out, _ = run(
            capsys, "search", "--n", "4", "--dmin", "8", "--dmax", "8", "--resume", str(ck)
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 1
        lines = ck.read_text().splitlines()
        assert lines[0] == "8 1"
        assert all(len(line.split()) == 2 for line in lines)
        assert len(lines) == len(set(lines))


class TestSearchRecords:
    @pytest.mark.parametrize("argv", [
        ("--n", "3", "--dmax", "25"),
        ("--n", "4", "--dmax", "40"),
        ("--n", "5", "--dmin", "73", "--dmax", "90"),
    ])
    def test_characteristic_of_every_triangle(self, capsys, argv):
        rc, out, _ = run(capsys, "search", *argv)
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        for rec in records:
            assert rec["characteristic"] == pointset_characteristic(DistanceMatrix(rec["matrix"]))

    def test_divisor_bound_of_forty_primes(self, capsys):
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:40]
        bound = math.prod(primes)
        proc = subprocess.run(
            [sys.executable, "-m", "intpoints", "search", "--n", "4", "--dmax", "30",
             "--char", f"div:{bound}"],
            capture_output=True, text=True, env=child_env(), timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        rc, out, _ = run(capsys, "search", "--n", "4", "--dmax", "30")
        assert rc == 0
        expected = [line for line in out.splitlines() if bound % json.loads(line)["characteristic"] == 0]
        assert expected
        assert proc.stdout.splitlines() == expected


class TestModsearchCommand:
    def test_modulus_5(self, capsys):
        rc, out, _ = run(capsys, "modsearch", "--modulus", "5")
        assert rc == 0
        size, _ = brute_force_mod_max(5)
        header, *witness = out.strip().splitlines()
        assert header == f"max_general_position(modulus=5) = {size}"
        assert len(witness) == size
        pts = [tuple(map(int, w.split())) for w in witness]
        assert pts == sorted(pts)

    def test_modulus_2(self, capsys):
        rc, out, _ = run(capsys, "modsearch", "--modulus", "2")
        assert rc == 0
        size, _ = brute_force_mod_max(2)
        assert f"= {size}" in out.splitlines()[0]

    def test_modulus_1_exits_2(self, capsys):
        rc, _, err = run(capsys, "modsearch", "--modulus", "1")
        assert rc == 2

    def test_budget_flags_lower_bound(self, capsys):
        rc, out, err = run(capsys, "modsearch", "--modulus", "11", "--budget", "3")
        assert rc == 0
        assert ">=" in out.splitlines()[0]
        assert "lower bound" in err


class TestDeterminism:
    def test_search_output_stable(self, capsys):
        _, first, _ = run(capsys, "search", "--n", "4", "--dmin", "1", "--dmax", "15")
        _, second, _ = run(capsys, "search", "--n", "4", "--dmin", "1", "--dmax", "15")
        assert first == second

    def test_search_jsonl_pinned(self, capsys):
        # sha256 of the JSONL: record order and bytes, not just the sets
        for argv, digest in (
            (("--n", "4", "--dmax", "40"),
             "7b2599270f10c786b8cee1530f68d1c08a4d18af19c77dad282a28172148e0c1"),
            (("--n", "7", "--char", "2002", "--dmin", "22270", "--dmax", "22270"),
             "9612f2882350e8207ea9fb6d498e8ef1ab1fe6c9b605b8b00c7932d14a1e3bb5"),
        ):
            rc, out, _ = run(capsys, "search", *argv)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_verify_output_stable(self, capsys, heptagon1_file):
        _, first, _ = run(capsys, "verify", str(heptagon1_file))
        _, second, _ = run(capsys, "verify", str(heptagon1_file))
        assert first == second


class TestCatalogCommand:
    def test_known_values(self, capsys):
        rc, out, _ = run(capsys, "catalog")
        assert rc == 0
        assert "min_diameter_general_position n=7" in out
        assert "22270" in out
        assert "smallest_6_2_cluster_diameter" in out
        assert "1886" in out
        assert "6469693230" in out
        assert "2*3*5*7*11*13*17*19*23*29" in out

    def test_min_diameter_rows(self, capsys):
        rc, out, _ = run(capsys, "catalog")
        rows = {
            line.split()[0] + " " + line.split()[1]: int(line.split()[2])
            for line in out.strip().splitlines()
            if line.startswith("min_diameter")
        }
        assert rows == {
            "min_diameter_general_position n=3": 1,
            "min_diameter_general_position n=4": 8,
            "min_diameter_general_position n=5": 73,
            "min_diameter_general_position n=6": 174,
            "min_diameter_general_position n=7": 22270,
        }


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout."""
    src = str(Path(intpoints.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestResumeAfterKill:
    def test_sigkill_then_resume_loses_nothing(self, tmp_path):
        argv = [sys.executable, "-m", "intpoints", "search", "--n", "4", "--dmax", "60"]
        env = child_env()
        # stdout to a file is block-buffered unless this is set
        env.pop("PYTHONUNBUFFERED", None)
        full = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert full.returncode == 0
        ck, out = tmp_path / "ck", tmp_path / "out.jsonl"
        resume = argv + ["--resume", str(ck)]
        with open(out, "wb") as fh:
            proc = subprocess.Popen(resume, stdout=fh, stderr=subprocess.DEVNULL, env=env)
            while proc.poll() is None and (
                not ck.exists() or ck.read_bytes().count(b"\n") < 1000
            ):
                time.sleep(0.002)
            proc.kill()
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL, "the search ended before it was killed"
        with open(out, "ab") as fh:
            rerun = subprocess.run(resume, stdout=fh, stderr=subprocess.DEVNULL, env=env, timeout=120)
        assert rerun.returncode == 0
        assert set(out.read_text().splitlines()) == set(full.stdout.splitlines())


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["intpoints", "intpoints.cli"])
    def test_python_m(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "catalog"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "22270" in proc.stdout
