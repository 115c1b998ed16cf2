import errno
import hashlib
import io
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
from sympy import nextprime

import intpoints
from intpoints import pointset as pointset_module
from intpoints.cli import _record, main
from intpoints.modplane import mod_max_general_position
from intpoints.pointset import (
    DistanceMatrix,
    EmbeddedPointSet,
    distances_from_embedding,
    embed,
    pointset_characteristic,
)
from intpoints.search import SearchConfig, search

from .oracles import brute_force_mod_max


HEADER_N4 = "# intpoints checkpoint n=4 general_position=on"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class BrokenPipeAfter(io.StringIO):
    """A stdout whose reader goes away once it has taken ``lines`` lines."""

    def __init__(self, lines: int):
        super().__init__()
        self.lines = lines

    def write(self, text: str) -> int:
        if self.getvalue().count("\n") >= self.lines:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)


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
        rebuilt = EmbeddedPointSet.of_points(payload["radicand"], pts)
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

    @pytest.mark.parametrize("case", ["missing", "asymmetric"])
    def test_unusable_file_exits_2(self, capsys, tmp_path, case):
        f = tmp_path / "m.txt"
        if case == "asymmetric":
            f.write_text("2\n0 1\n2 0\n")
        rc, out, err = run(capsys, "embed", str(f))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_strong_pseudoprime_square_exits_2(self, capsys):
        # 318665857834031151167461 = 399165290221 * 798330580441 is the least
        # strong pseudoprime to the prime bases up to 37
        bound = 399165290221**2 * 798330580441
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "5", "--char", f"div:{bound}")
        assert rc == 2
        assert out == ""
        assert "not square-free" in err

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

    def test_closed_stdout_exits_2_and_resumes(self, capsys, monkeypatch, tmp_path):
        # the window of test_search_shard_and_checkpoint_pinned, 1 421
        # records; the key whose record met the closed pipe stays unlogged,
        # so the second run starts at that key and repeats its records
        # already taken
        ck = str(tmp_path / "ck")
        argv = ["search", "--n", "4", "--dmin", "81", "--dmax", "100", "--resume", ck]
        stdout = BrokenPipeAfter(700)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        first = stdout.getvalue().splitlines(keepends=True)
        assert len(first) == 700
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        rest = out.splitlines(keepends=True)
        cut = first.index(rest[0]) if rest[0] in first else len(first)
        assert first[cut:] == rest[: len(first) - cut]
        whole = "".join(first[:cut] + rest)
        assert hashlib.sha256(whole.encode()).hexdigest() == (
            "188cdf538be344252a3a9278dbd2d6b65ee4e0fa529b73063c74dbc594645396"
        )

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

    def test_resume_general_position_off_exits_2(self, capsys, tmp_path):
        # the header a search that did not require general position wrote
        ck = tmp_path / "ck"
        ck.write_text("# intpoints checkpoint n=4 general_position=off\n5 1\n")
        before = ck.read_bytes()
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "8", "--resume", str(ck))
        assert rc == 2
        assert not out
        assert "n=4 general_position=off" in err
        assert "n=4 general_position=on" in err
        assert ck.read_bytes() == before

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

    @pytest.mark.parametrize("argv", [
        ("--n", "4", "--dmax", "60"),
        ("--n", "5", "--dmin", "73", "--dmax", "90"),
        ("--n", "7", "--char", "2002", "--dmin", "22270", "--dmax", "22270"),
    ])
    def test_points_are_the_embedding(self, capsys, argv):
        # the record's points, formatted from integers, are embed's Fractions
        rc, out, _ = run(capsys, "search", *argv)
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        for rec in records:
            e = embed(DistanceMatrix(rec["matrix"]))
            assert rec["characteristic"] == e.k
            assert [
                (Fraction(p["x"]), Fraction(p["y"]["coeff"]), p["y"]["radicand"])
                for p in rec["points"]
            ] == [(x, q, e.k) for x, q in e.points]
            for p in rec["points"]:
                for text in (p["x"], p["y"]["coeff"]):
                    f = Fraction(text)
                    assert text == f"{f.numerator}/{f.denominator}"

    def test_records_build_no_fraction(self, monkeypatch, heptagon1, heptagon2):
        expected = [_record(m) for m in (heptagon1, heptagon2)]

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(pointset_module, "Fraction", refuse)
        assert [_record(m) for m in (heptagon1, heptagon2)] == expected


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

    @pytest.mark.parametrize("budget", [None, 40])
    def test_reports_the_nodes(self, capsys, budget):
        argv = ["--modulus", "13"] + ([] if budget is None else ["--budget", str(budget)])
        rc, _, err = run(capsys, "modsearch", *argv)
        assert rc == 0
        nodes = mod_max_general_position(13, node_budget=budget).nodes
        assert err.splitlines()[-1] == f"# {nodes} node(s)"


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
            # with test_search_n4_window_pinned, every n = 4 key up to d = 101
            (("--n", "4", "--dmin", "41", "--dmax", "63"),
             "2611bab4edf90e4ab31c7be489582f236495b71d0c4160fcee898e4e39a616ba"),
            (("--n", "7", "--char", "2002", "--dmin", "22270", "--dmax", "22270"),
             "9612f2882350e8207ea9fb6d498e8ef1ab1fe6c9b605b8b00c7932d14a1e3bb5"),
            # the second heptagon's key, which also holds the first scaled by 3
            (("--n", "7", "--char", "2002", "--dmin", "66810", "--dmax", "66810"),
             "18c2d20cf3e48ded6e3c78954a669a8cc080abce4407d4e375dbd1cac889dbf2"),
            # n = 6 takes the DFS through its line and circle tests, the
            # circles through two earlier chosen points included
            (("--n", "6", "--dmin", "170", "--dmax", "176"),
             "a2ab6719e369655aa894045ccec3240e56d00d7c779adf8e5b2d1422d10c1c9a"),
            # 31 sets over d = 1009..1013, primes and composites, whose keys
            # hold many classes on one ray from (0, 0)
            (("--n", "5", "--char", "div:6469693230", "--dmin", "1009", "--dmax", "1013"),
             "7de8ea1957e45977228a8e5ebff5a0119d0b4d23e553eb64394e38dc9a8b6a89"),
        ):
            rc, out, _ = run(capsys, "search", *argv)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_search_composite_diameters_pinned(self, capsys):
        # n = 5 at diameters with a square odd prime factor, 1125 = 3^2 * 5^3
        # and 4225 = 5^2 * 13^2: keys with classes whose X and S share a
        # power p^v of such a prime with 1 <= v < e
        for argv, digest in (
            (("--dmin", "1125", "--dmax", "1125"),
             "5e2a66c3ab46d1a321ba5d664f60140396ba72e1f166af697e68ca9ad2817821"),
            (("--dmin", "4225", "--dmax", "4225"),
             "175c36290fe12febcd55399e2e9795906b8b563b2f91053d225ab2a30609fc0f"),
        ):
            rc, out, _ = run(capsys, "search", "--n", "5", "--char", "div:6469693230", *argv)
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

    def test_search_shard_and_checkpoint_pinned(self, capsys, tmp_path):
        # keys that hold no set are still counted by the shard index and
        # logged as done: at d = 81..100, 27 229 of the 31 899 keys
        rc, out, _ = run(capsys, "search", "--n", "4", "--dmin", "81", "--dmax", "100",
                         "--shard", "1/3")
        assert rc == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "38d080b8a3d852885f6d0e6b12d94751c3ce67a3a7b3d9eabc39ad61a71aaf1d"
        ck = tmp_path / "ck"
        rc, out, _ = run(capsys, "search", "--n", "4", "--dmin", "81", "--dmax", "100",
                         "--resume", str(ck))
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "188cdf538be344252a3a9278dbd2d6b65ee4e0fa529b73063c74dbc594645396"
        )
        assert ck.read_bytes().count(b"\n") == 1 + 31899
        digest = hashlib.sha256(ck.read_bytes()).hexdigest()
        assert digest == "e770b9f0b162c001cdf62111e1cd63796a41c9a90eaa876f614713d21307fbf9"

    def test_search_n5_pinned(self, capsys):
        # at n = 5 the class count decides most keys of these diameters
        rc, out, _ = run(capsys, "search", "--n", "5", "--dmin", "300", "--dmax", "303")
        assert rc == 0
        assert out.count("\n") == 7
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "3a79d84c99a1b3f279da3adffa8a93218d02d444d86529bb7ebeb21aa8c28148"

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


class TestClosedPipe:
    @pytest.mark.parametrize("resume", [False, True], ids=["plain", "resume"])
    def test_reader_gone_after_one_line_exits_2(self, tmp_path, resume):
        # 5 417 records, far more than a pipe buffer holds; the flush at
        # interpreter exit, which an in-process run never reaches, must not
        # fail on the bytes left in stdout's buffer
        argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "intpoints",
                "search", "--n", "4", "--dmax", "120"]
        if resume:
            argv += ["--resume", str(tmp_path / "ck")]
        env = child_env()
        # with it set stdout keeps no bytes, which hides the flush at exit
        env.pop("PYTHONUNBUFFERED", None)
        err = tmp_path / "err"
        with open(err, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=fh, env=env)
            assert proc.stdout.readline().startswith(b"{")
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        assert rc == 2
        assert err.read_text() == "error: [Errno 32] Broken pipe\n"


def assert_out_of_memory_exit(*argv):
    """Run the command in a child whose own address space is capped at
    256 MB, check that it exits 2 with one line and no traceback, and return
    that line."""
    script = (
        "import resource, runpy, sys\n"
        "limit = 256 << 20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        f"sys.argv = ['intpoints', *{argv!r}]\n"
        "runpy.run_module('intpoints', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    return proc.stderr


class TestSearchOutOfMemory:
    def test_memory_error_exits_2_without_traceback(self):
        # the unfiltered candidate index of d = 22270 needs gigabytes
        assert_out_of_memory_exit("search", "--n", "5", "--dmin", "22270", "--dmax", "22270")

    def test_index_larger_than_memory_is_refused(self, monkeypatch, capsys):
        # with physical memory one byte short of the index of d = 70, the
        # search gives the sets of d = 60..69 and then refuses d = 70 with
        # its pair count, before building it; a pair (u, v) has v = a - b
        # >= 0, so the pairs are the entries with a >= b
        search_module = sys.modules["intpoints.search"]
        entries = search_module._candidate_groups(70, search_module.CharFilter.any_char())
        pairs = sum(1 for bucket in entries.values() for a, b, _, _ in bucket if a >= b)
        assert main(["search", "--n", "4", "--dmin", "60", "--dmax", "69"]) == 0
        before = capsys.readouterr().out
        memory = pairs * search_module._PAIR_BYTES - 1
        monkeypatch.setattr(search_module, "physical_memory", lambda: memory)
        assert main(["search", "--n", "4", "--dmin", "60", "--dmax", "80"]) == 2
        out, err = capsys.readouterr()
        assert out == before
        assert err == (
            f"error: out of memory after {len(before.splitlines())} point set(s): the candidate "
            f"index of d = 70 holds {pairs:,} (u, v) pairs, about {memory + 1:,} bytes at "
            f"{search_module._PAIR_BYTES} bytes a pair, more than the {memory:,} bytes of "
            "physical memory\n"
        )


    def test_memory_error_after_a_record_exits_2(self, monkeypatch, capsys):
        # the record taken before the failure is kept and counted
        first = next(search(SearchConfig(target_n=4, d_min=1, d_max=10)))

        def out_of_memory(config, checkpoint=None):
            yield first
            raise MemoryError()

        monkeypatch.setattr(sys.modules["intpoints.cli"], "search", out_of_memory)
        rc, out, err = run(capsys, "search", "--n", "4", "--dmin", "5", "--dmax", "9")
        assert (rc, out) == (2, _record(first) + "\n")
        assert err == (
            "error: out of memory after 1 point set(s): searching diameters 5..9 (the "
            "candidate index of one diameter d holds up to d(d+1)/2 candidates)\n"
        )


class TestFactorBound:
    """A number that ``arith.factorize`` cannot split within its bound on
    Pollard rho steps ends search, verify and embed with exit 2 and a
    message, not a traceback."""

    def test_char_value_exits_2(self, capsys):
        # the product of the next primes after 10^20 and 3*10^20, at the
        # bound of 2^20 steps
        value = 30000000000000000017000000000000000002067
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "10", "--char", f"div:{value}")
        assert (rc, out) == (2, "")
        assert err == f"error: cannot factor {value} within the bound of 1,048,576 Pollard rho steps\n"

    def test_large_char_value_gets_fewer_steps(self, capsys):
        # the product of the next primes after 10^149 and 3*10^149, 992
        # bits: 2^20 * 136^2 // 992^2 steps, about 0.3 s
        value = nextprime(10**149) * nextprime(3 * 10**149)
        rc, out, err = run(capsys, "search", "--n", "4", "--dmax", "10", "--char", f"div:{value}")
        assert (rc, out) == (2, "")
        assert err == f"error: cannot factor {value} within the bound of 19,708 Pollard rho steps\n"

    @pytest.mark.parametrize("argv", [("verify",), ("verify", "--json"), ("embed",)])
    def test_heron_factor_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        # the triangle (x, x, 1) has the Heron factor 2x + 1 = 1000003 *
        # 1000033, which rho splits in 478 steps: not within 100
        monkeypatch.setattr(sys.modules["intpoints.arith"], "_RHO_STEPS", 100)
        hard = 1_000_003 * 1_000_033
        x = (hard - 1) // 2
        path = tmp_path / "hard.txt"
        path.write_text(f"3\n0 {x} {x}\n{x} 0 1\n{x} 1 0\n")
        rc, out, err = run(capsys, *argv, str(path))
        assert (rc, out) == (2, "")
        assert err == f"error: cannot factor {hard} within the bound of 100 Pollard rho steps\n"


class TestModsearchOutOfMemory:
    def test_memory_error_exits_2_without_traceback(self):
        # the adjacency and line masks of Z_5000^2 take 5000^4 bits each and
        # the circle masks 5000^3, about 142 TiB in all: refused by that
        # estimate before anything is allocated
        line = assert_out_of_memory_exit("modsearch", "--modulus", "5000")
        assert "2*5000^4 + 5000^3 bits (156,265,625,000,000 bytes)" in line

    def test_line_masks_count(self, monkeypatch, capsys):
        # memory that holds the adjacency of Z_12^2 alone, 2 592 bytes, is
        # refused, as the line masks take as much again
        memory = 12**4 // 8
        monkeypatch.setattr(sys.modules["intpoints.modplane"], "physical_memory", lambda: memory)
        assert main(["modsearch", "--modulus", "12"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: out of memory: the adjacency, line and circle masks of Z_12^2 take "
            "2*12^4 + 12^3 bits (5,400 bytes), more than the 2,592 bytes of physical memory\n"
        )

    def test_memory_error_in_the_search_exits_2(self, monkeypatch, capsys):
        # a modulus under the estimate can still run out of memory
        def out_of_memory(m, node_budget=None):
            raise MemoryError()

        monkeypatch.setattr(sys.modules["intpoints.cli"], "mod_max_general_position", out_of_memory)
        rc, out, err = run(capsys, "modsearch", "--modulus", "7")
        assert (rc, out) == (2, "")
        assert err == "error: out of memory: searching Z_7^2 (2*7^4 + 7^3 mask bits)\n"


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["intpoints", "intpoints.cli"])
    def test_python_m(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "catalog"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "22270" in proc.stdout
