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
from intpoints.search import SearchConfig, search

from .oracles import brute_force_mod_max


HEADER_N4 = "# intpoints checkpoint n=4 general_position=on"


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

    @pytest.mark.parametrize("token", ["1_0", "\u0661"])  # digit separator, Arabic-Indic one
    def test_non_ascii_decimal_token_exits_2(self, capsys, tmp_path, token):
        # int() reads both; a certificate holds plain ASCII decimals only
        f = tmp_path / "odd.txt"
        f.write_text(f"2\n0 {token}\n{token} 0\n", encoding="utf-8")
        rc, out, err = run(capsys, "verify", str(f))
        assert rc == 2
        assert out == ""
        assert "non-integer token" in err and repr(token) in err

    def test_failing_matrix_exits_1(self, capsys, tmp_path):
        collinear = tmp_path / "collinear.txt"
        collinear.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        rc, out, _ = run(capsys, "verify", str(collinear))
        assert rc == 1
        assert "overall: FAIL" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        rc, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
        assert rc == 2

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "binary.txt"
        f.write_bytes(b"\xff\xfe3\n")
        rc, out, err = run(capsys, "verify", str(f))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err


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
        f.write_text("7\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        rc, _, err = run(capsys, "embed", str(f))
        assert rc == 1
        assert "not realizable" in err

    def test_collinear_base_exits_1(self, capsys, tmp_path):
        f = tmp_path / "line.txt"
        f.write_text("3\n0 5 2\n5 0 3\n2 3 0\n")
        rc, out, err = run(capsys, "embed", str(f))
        assert rc == 1
        assert out == ""
        assert err == "not realizable: point 3 lies on the line through points 1 and 2\n"

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "binary.txt"
        f.write_bytes(b"\xff\xfe3\n")
        rc, out, err = run(capsys, "embed", str(f))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err


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
        ck.write_text(f"{HEADER_N4}\n8 1\n8 x\n")
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "8", "--resume", str(ck))
        assert rc == 2
        assert not out
        assert "line 3" in err

    # int() reads each of these keys as (8, 1), which holds the only 4-set
    # at d = 8: taking it as done would skip work that was never done
    @pytest.mark.parametrize("key", ["+8 1", "0_8 1", "\u0668 1", "8 +1"])
    def test_resume_lenient_key_exits_2(self, capsys, tmp_path, key):
        ck = tmp_path / "ck"
        ck.write_text(f"{HEADER_N4}\n{key}\n", encoding="utf-8")
        before = ck.read_bytes()
        rc, out, err = run(
            capsys, "search", "--n", "4", "--dmin", "8", "--dmax", "8", "--resume", str(ck)
        )
        assert rc == 2
        assert not out
        assert "line 2" in err
        assert ck.read_bytes() == before

    def test_resume_ignores_unterminated_last_line(self, capsys, tmp_path):
        # key (8, 1) holds the only 4-set at d = 8; a torn line must not mark it done
        ck = tmp_path / "ck"
        ck.write_text(f"{HEADER_N4}\n8 1")
        rc, out, _ = run(
            capsys, "search", "--n", "4", "--dmin", "8", "--dmax", "8", "--resume", str(ck)
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 1
        header, *lines = ck.read_text().splitlines()
        assert header == HEADER_N4
        assert lines[0] == "8 1"
        assert all(len(line.split()) == 2 for line in lines)
        assert len(lines) == len(set(lines))

    def test_resume_with_other_size_exits_2(self, capsys, tmp_path):
        # the keys a 4-point search finished say nothing about 3-point sets
        ck = tmp_path / "ck"
        rc, out, _ = run(capsys, "search", "--n", "4", "--dmax", "8", "--resume", str(ck))
        assert rc == 0 and out
        before = ck.read_text()
        assert before.startswith(HEADER_N4 + "\n")
        rc, out, err = run(capsys, "search", "--n", "3", "--dmax", "8", "--resume", str(ck))
        assert rc == 2
        assert not out
        assert "n=4 general_position=on" in err
        assert "n=3 general_position=on" in err
        assert ck.read_text() == before

    def test_resume_without_header_exits_2(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        ck.write_text("8 1\n")
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "8", "--resume", str(ck))
        assert rc == 2
        assert not out
        assert "no header" in err
        assert "n=4 general_position=on" in err
        assert ck.read_text() == "8 1\n"

    def test_resume_unterminated_foreign_file_exits_2(self, capsys, tmp_path):
        # no newline, but no prefix of the header either: not a torn header
        ck = tmp_path / "ck"
        ck.write_bytes(b"precious data, no newline")
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "8", "--resume", str(ck))
        assert rc == 2
        assert not out
        assert "no header" in err
        assert ck.read_bytes() == b"precious data, no newline"

    def test_resume_with_other_char_filter(self, capsys, tmp_path):
        # --char only chooses keys: a resume under another filter runs the rest
        ck = tmp_path / "ck"
        _, fresh, _ = run(capsys, "search", "--n", "4", "--dmax", "30")
        rc, first, _ = run(
            capsys, "search", "--n", "4", "--dmax", "30", "--char", "15", "--resume", str(ck)
        )
        assert rc == 0 and first
        rc, rest, _ = run(capsys, "search", "--n", "4", "--dmax", "30", "--resume", str(ck))
        assert rc == 0 and rest
        assert sorted((first + rest).splitlines()) == sorted(fresh.splitlines())


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

    def test_zero_budget_keeps_the_fixed_point(self, capsys):
        rc, out, err = run(capsys, "modsearch", "--modulus", "5", "--budget", "0")
        assert rc == 0
        assert out.splitlines() == ["max_general_position(modulus=5) >= 1", "0 0"]
        assert "lower bound" in err

    def test_negative_budget_exits_2(self, capsys):
        rc, out, err = run(capsys, "modsearch", "--modulus", "5", "--budget", "-1")
        assert rc == 2
        assert out == ""
        assert "budget" in err


class TestPlainDecimalArguments:
    # int() would read each of these as plain digits
    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "3", "--dmax", "8", "--char", "1_5"],
            ["search", "--n", "3", "--dmax", "8", "--char", "\u0661\u0665"],
            ["search", "--n", "3", "--dmax", "8", "--char", "div:3_0"],
            ["search", "--n", "3", "--dmax", "8", "--char", " 15"],
            ["search", "--n", "3", "--dmax", "8", "--char", "15 "],
            ["search", "--n", "3", "--dmax", "8", "--char", " div:30"],
            ["search", "--n", "3", "--dmax", "\u0668"],
            ["search", "--n", "3", "--dmax", "8", "--shard", "0/1_0"],
            ["search", "--n", "3", "--dmin", "+1", "--dmax", "8"],
            ["search", "--n", " 3", "--dmax", "8"],
            ["modsearch", "--modulus", "1_3"],
            ["modsearch", "--modulus", "13", "--budget", "1_0"],
        ],
    )
    def test_lenient_integer_exits_2(self, capsys, argv):
        try:
            rc = main(argv)
        except SystemExit as exc:  # rejected by argparse
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err


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
            # n = 6 takes the DFS through its line and circle tests, the
            # circles through two earlier chosen points included
            (("--n", "6", "--dmin", "170", "--dmax", "176"),
             "a2ab6719e369655aa894045ccec3240e56d00d7c779adf8e5b2d1422d10c1c9a"),
        ):
            rc, out, _ = run(capsys, "search", *argv)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_search_n4_window_pinned(self, capsys, monkeypatch):
        # d = 64..101 holds every window of the benchmark's n = 4 workload;
        # only the least clique of each orbit under the two reflections of
        # the base edge is canonicalized (8 287 calls when all were)
        module = sys.modules["intpoints.search"]
        original = module.canonical_form
        calls = []

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(module, "canonical_form", counting)
        rc, out, _ = run(capsys, "search", "--n", "4", "--dmin", "64", "--dmax", "101")
        assert rc == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "0d7edee0b8a082b2e46c91a9020a98b68f03547dd90957a025080da93359d766"
        assert len(calls) <= 2479

    def test_search_char_1_pinned(self, capsys):
        # characteristic 1: the integral-coordinate cluster candidates
        rc, out, _ = run(capsys, "search", "--n", "4", "--dmax", "60", "--char", "1")
        assert rc == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "d2dca5f4a51cf16dbadf037eb9c7b78ae56bf256768fff971b12796b33d4d5ad"

    def test_search_rows_pinned_general_position_off(self):
        # the CLI always requires general position; with it off the DFS
        # keeps every candidate among the neighbours of a chosen vertex; at
        # n = 4 a key of one class pair holds a set through either of its
        # two edges, the parallelogram diagonal or the trapezoid's top side
        for n, count, pinned in (
            (6, 1118, "b7e62636337da24c1eb92ef9b34d6c582c534618b499444c4470b6f3fd6cdc23"),
            (4, 6867, "f1b45fcabef097b8ce9f390ff30154bbb49d05716821532ebdce4b64fff44c45"),
        ):
            rows = [m.rows for m in search(SearchConfig(n, 1, 60, require_general_position=False))]
            assert len(rows) == count, n
            digest = hashlib.sha256(repr(rows).encode()).hexdigest()
            assert digest == pinned, n

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
