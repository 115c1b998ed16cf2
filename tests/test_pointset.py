import random
import time
from itertools import combinations

import pytest

from intpoints.pointset import (
    CharacteristicMismatch,
    CheckResult,
    DegenerateTriangle,
    DistanceMatrix,
    InvalidDistanceMatrix,
    NotATriangle,
    NotATriple,
    embed,
    is_collinear_triple,
    parse_matrix_text,
    pointset_characteristic,
    triangle_characteristic,
    verify,
)
from intpoints.search import SearchConfig, search

from .oracles import sympy_triangle_characteristic

TRIANGLE_345 = DistanceMatrix([[0, 5, 4], [5, 0, 3], [4, 3, 0]])


class TestDistanceMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidDistanceMatrix):
            DistanceMatrix([[0, 1], [2, 0]])
        with pytest.raises(InvalidDistanceMatrix):
            DistanceMatrix([[0, 0], [0, 0]])
        with pytest.raises(InvalidDistanceMatrix):
            DistanceMatrix([[1, 2], [2, 0]])

    def test_upper_vector_order(self, heptagon1):
        # the upper-right triangle read column by column: d12, d13, d23, d14, ...
        v = [heptagon1.rows[i][j] for j in range(1, 7) for i in range(j)]
        assert v[:6] == [22270, 22098, 21488, 16637, 11397, 10795]
        assert len(v) == 21

    def test_text_roundtrip(self, heptagon1):
        text = "7\n" + "".join(" ".join(map(str, row)) + "\n" for row in heptagon1.rows)
        assert parse_matrix_text(text) == heptagon1

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidDistanceMatrix):
            parse_matrix_text("2\n0 1\n1")
        with pytest.raises(InvalidDistanceMatrix):
            parse_matrix_text("2\n0 x\n1 0")

    def test_diameter(self, heptagon1, heptagon2):
        assert heptagon1.diameter() == 22270
        assert heptagon2.diameter() == 66810


class TestTriangleCharacteristic:
    def test_right_triangle(self):
        # product = 12*2*4*6 = 576 = 24^2
        assert triangle_characteristic(3, 4, 5) == 1

    def test_equilateral(self):
        assert triangle_characteristic(1, 1, 1) == 3

    def test_heptagon_triangle(self):
        assert triangle_characteristic(9248, 8908, 5780) == 2002

    def test_degenerate(self):
        with pytest.raises(DegenerateTriangle):
            triangle_characteristic(1, 2, 3)

    def test_violated(self):
        with pytest.raises(NotATriangle):
            triangle_characteristic(1, 1, 5)

    def test_scaling_and_permutation_invariance_randomized(self):
        rng = random.Random(1886)
        count = 0
        while count < 10_000:
            a = rng.randint(1, 500)
            b = rng.randint(1, 500)
            c = rng.randint(abs(a - b) + 1, a + b - 1) if abs(a - b) + 1 <= a + b - 1 else 0
            if c < 1:
                continue
            count += 1
            base = triangle_characteristic(a, b, c)
            lam = rng.randint(1, 20)
            assert triangle_characteristic(lam * a, lam * b, lam * c) == base
            sides = [a, b, c]
            rng.shuffle(sides)
            assert triangle_characteristic(*sides) == base

    def test_agrees_with_sympy_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            a = rng.randint(1, 3000)
            b = rng.randint(1, 3000)
            lo = abs(a - b) + 1
            if lo > a + b - 1:
                continue
            c = rng.randint(lo, a + b - 1)
            assert triangle_characteristic(a, b, c) == sympy_triangle_characteristic(a, b, c)


class TestCollinearTriple:
    def test_tight(self):
        assert is_collinear_triple(1, 2, 3) is True

    def test_proper_triangle(self):
        assert is_collinear_triple(3, 4, 5) is False

    def test_diameter_midpoint(self):
        assert is_collinear_triple(11135, 11135, 22270) is True

    def test_metric_violation(self):
        with pytest.raises(NotATriple):
            is_collinear_triple(1, 1, 5)


class TestPointsetCharacteristic:
    def test_heptagon1(self, heptagon1):
        assert pointset_characteristic(heptagon1) == 2002

    def test_heptagon2_divides_primorial(self, heptagon2):
        c = pointset_characteristic(heptagon2)
        assert c == 2002
        assert 6469693230 % c == 0

    def test_equilateral(self):
        assert pointset_characteristic(DistanceMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])) == 3

    def test_mismatch_detected(self):
        # triangles (3,4,5) [char 1] and (3,4,4) [char 55] over one edge
        m = DistanceMatrix([[0, 3, 4, 4], [3, 0, 5, 4], [4, 5, 0, 7], [4, 4, 7, 0]])
        with pytest.raises(CharacteristicMismatch):
            pointset_characteristic(m)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            # first triangle (2,2,2); (1,2,4) is (2,1,1), a tight inequality
            ([[0, 2, 2, 1], [2, 0, 2, 1], [2, 2, 0, 2], [1, 1, 2, 0]],
             DegenerateTriangle, "degenerate triangle (2, 1, 1)"),
            # first triangle (2,2,2); (1,2,4) is (2,5,1), a metric violation
            ([[0, 2, 2, 5], [2, 0, 2, 1], [2, 2, 0, 2], [5, 1, 2, 0]],
             NotATriangle, "triangle inequality violated for (2, 5, 1)"),
        ],
        ids=["degenerate", "violated"],
    )
    def test_later_non_triangle_raises_its_error(self, rows, error, message):
        with pytest.raises(error) as info:
            pointset_characteristic(DistanceMatrix(rows))
        assert str(info.value) == message
        assert not isinstance(info.value, CharacteristicMismatch)


class TestVerify:
    def test_heptagon1_passes(self, heptagon1):
        report = verify(heptagon1)
        assert report.passed
        assert report.diameter == 22270
        assert report.characteristic == 2002
        assert report.canonical.passed
        assert not report.cluster_candidate

    def test_scaled_heptagon_costs_what_the_unscaled_one_does(self, heptagon1):
        # the next primes after 10**20 and 2*10**20: the Heron factors of the
        # scaled sides are too hard to factor, those of the unscaled ones not
        lam = 100000000000000000039 * 200000000000000000089
        scaled = DistanceMatrix([[lam * x for x in row] for row in heptagon1.rows])
        start = time.process_time()
        report, e = verify(scaled), embed(scaled)
        assert time.process_time() - start < 1
        assert report.lines() == [
            line.replace("diameter=22270 ", f"diameter={lam * 22270} ")
            for line in verify(heptagon1).lines()
        ]
        plain = embed(heptagon1)
        assert e.k == plain.k
        assert e.points == tuple((lam * x, lam * y) for x, y in plain.points)

    def test_heptagon2_passes(self, heptagon2):
        report = verify(heptagon2)
        assert report.passed
        assert report.diameter == 66810
        assert 6469693230 % report.characteristic == 0

    def test_collinear_triple_fails(self):
        report = verify([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        assert not report.passed
        assert not report.no_collinear_triple.passed
        assert report.realizable.passed  # embeddable, just not in general position

    def test_asymmetric_input_reported(self):
        report = verify([[0, 1], [2, 0]])
        assert not report.passed
        assert not report.symmetric_positive.passed

    def test_invalid_structure_lines(self):
        skipped = "FAIL (not evaluated: invalid matrix structure)"
        assert verify([[0, 1], [2, 0]]).lines() == [
            "symmetry/positivity: FAIL (asymmetric entries at (1,2))",
            f"strict triangle inequalities: {skipped}",
            f"planar realizability: {skipped}",
            f"no three collinear: {skipped}",
            f"no four concyclic: {skipped}",
            f"uniform characteristic: {skipped}",
            f"canonical form: {skipped}",
            "diameter=0 characteristic=- cluster_candidate=no",
            "overall: FAIL",
        ]

    @pytest.mark.parametrize(
        "rows, uniform, strict",
        [
            ([[0, 3, 4, 4], [3, 0, 5, 4], [4, 5, 0, 7], [4, 4, 7, 0]],
             "characteristic 55 at points (1, 2, 4) differs from 1", ""),
            ([[0, 1, 1, 5], [1, 0, 1, 1], [1, 1, 0, 1], [5, 1, 1, 0]],
             "no characteristic: metric violation at points (1, 2, 4)",
             "triangle inequality violated at points (1, 2, 4)"),
            ([[0, 1, 2], [1, 0, 1], [2, 1, 0]],
             "no characteristic: degenerate triangle at points (1, 2, 3)",
             "tight triangle inequality at points (1, 2, 3)"),
        ],
        ids=["mismatch", "violated", "degenerate"],
    )
    def test_characteristic_details(self, rows, uniform, strict):
        report = verify(rows)
        assert report.uniform_characteristic == CheckResult(False, uniform)
        assert report.strict_triangles == CheckResult(not strict, strict)
        assert report.characteristic is None

    @staticmethod
    def expected_uniform(rows):
        """verify's uniform check from the sympy characteristic of every triangle."""
        first = None
        for i, j, l in combinations(range(len(rows)), 3):
            a, b, c = rows[i][j], rows[i][l], rows[j][l]
            label = f"points {(i + 1, j + 1, l + 1)}"
            product = (a + b + c) * (a + b - c) * (a - b + c) * (-a + b + c)
            if product < 0:
                return CheckResult(False, f"no characteristic: metric violation at {label}"), None
            if product == 0:
                return CheckResult(False, f"no characteristic: degenerate triangle at {label}"), None
            k = sympy_triangle_characteristic(a, b, c)
            if first is None:
                first = k
            elif k != first:
                return CheckResult(False, f"characteristic {k} at {label} differs from {first}"), None
        return CheckResult(True), first

    def test_uniform_characteristic_agrees_with_sympy_oracle(self):
        rng = random.Random(2002)
        matrices = []
        for _ in range(400):
            n = rng.randint(3, 6)
            rows = [[0] * n for _ in range(n)]
            for i, j in combinations(range(n), 2):
                rows[i][j] = rows[j][i] = rng.randint(1, rng.choice((4, 9, 30)))
            matrices.append(rows)
        records = [[list(r) for r in m.rows] for m in search(SearchConfig(4, 1, 30))]
        assert len(records) > 20
        for rows in records:
            matrices.append(rows)
            i, j = sorted(rng.sample(range(4), 2))
            bad = [list(r) for r in rows]
            bad[i][j] = bad[j][i] = max(1, bad[i][j] + rng.choice((-2, -1, 1, 2)))
            matrices.append(bad)
        kinds = set()
        for rows in matrices:
            report = verify(rows)
            uniform, characteristic = self.expected_uniform(rows)
            assert report.uniform_characteristic == uniform, rows
            assert report.characteristic == characteristic, rows
            kinds.add(next((w for w in ("violation", "degenerate", "differs") if w in uniform.detail), "pass"))
        assert kinds == {"pass", "violation", "degenerate", "differs"}

    @pytest.mark.parametrize(
        "rows",
        [
            # int() would truncate these to the 5-4-3 right triangle
            [[0, 5.9, 4.2], [5.9, 0, 3.7], [4.2, 3.7, 0]],
            [["0", "5", "4"], ["5", "0", "3"], ["4", "3", "0"]],
            # index() would read True as the distance 1
            [[0, True], [True, 0]],
        ],
        ids=["float", "str", "bool"],
    )
    def test_non_integer_entries_reported(self, rows):
        with pytest.raises(InvalidDistanceMatrix, match=type(rows[0][1]).__name__):
            DistanceMatrix(rows)
        report = verify(rows)
        assert not report.passed
        assert not report.symmetric_positive.passed

    def test_square_is_concyclic(self):
        # 3-4-5 style square with diagonal 5: (0,0),(3,0)... use integer square x5
        # scaled square: side 4, diagonal not integral -> use a rectangle 3x4
        m = DistanceMatrix(
            [[0, 3, 5, 4], [3, 0, 4, 5], [5, 4, 0, 3], [4, 5, 3, 0]]
        )
        report = verify(m)
        assert not report.no_concyclic_quadruple.passed
        assert report.realizable.passed
        assert report.no_collinear_triple.passed

    def test_trapezoid_with_radicand_is_concyclic(self):
        # isosceles trapezoid: bases 5 and 4, legs 4, diagonals 6; its
        # coordinates have denominator 2 and y in Q*sqrt(7)
        rows = [[0, 5, 6, 4], [5, 0, 4, 6], [6, 4, 0, 4], [4, 6, 4, 0]]
        e = embed(DistanceMatrix(rows))
        assert e.k == 7
        assert {p[1].denominator for p in e.points} == {1, 2}
        report = verify(rows)
        assert report.no_concyclic_quadruple.detail == "concyclic quadruple at points (1, 2, 3, 4)"
        assert not report.no_concyclic_quadruple.passed
        assert report.no_collinear_triple.passed
        assert report.realizable.passed

    def test_single_point(self):
        report = verify([[0]])
        assert report.passed
        assert report.diameter == 0
        assert report.characteristic is None

    def test_cluster_candidate_flag(self):
        # characteristic-1 triangle: (3,4,5)
        report = verify(TRIANGLE_345)
        assert report.characteristic == 1
        assert report.cluster_candidate
