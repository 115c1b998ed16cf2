import random

import pytest

from intpoints.pointset import (
    CharacteristicMismatch,
    DegenerateTriangle,
    DistanceMatrix,
    InvalidDistanceMatrix,
    NotATriangle,
    NotATriple,
    is_collinear_triple,
    parse_matrix_text,
    pointset_characteristic,
    triangle_characteristic,
    verify,
)

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
        v = heptagon1.upper_vector()
        assert v[:6] == (22270, 22098, 21488, 16637, 11397, 10795)
        assert len(v) == 21

    def test_text_roundtrip(self, heptagon1):
        assert parse_matrix_text(heptagon1.to_text()) == heptagon1

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


class TestVerify:
    def test_heptagon1_passes(self, heptagon1):
        report = verify(heptagon1)
        assert report.passed
        assert report.diameter == 22270
        assert report.characteristic == 2002
        assert report.canonical.passed
        assert not report.cluster_candidate

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
        report = verify([[0, 5, 6, 4], [5, 0, 4, 6], [6, 4, 0, 4], [4, 6, 4, 0]])
        assert report.embedding.k == 7
        assert {p[1].denominator for p in report.embedding.points} == {1, 2}
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
