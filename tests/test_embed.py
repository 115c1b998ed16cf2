import ast
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from intpoints.pointset import (
    CoincidentPoints,
    CollinearBase,
    DistanceMatrix,
    EmbeddedPointSet,
    NonIntegralDistance,
    NotRealizable,
    distances_from_embedding,
    embed,
    is_concyclic_or_collinear,
)

from .conftest import HEPTAGON_1_COORDS
from .oracles import cross_ratio_concyclic_or_collinear


class TestEmbed:
    def test_heptagon1_exact_coordinates(self, heptagon1):
        e = embed(heptagon1)
        assert e.k == 2002
        for i, (x, q) in enumerate(HEPTAGON_1_COORDS):
            assert e.x(i) == Fraction(x), f"x of point {i + 1}"
            assert e.y_coeff(i) == Fraction(q), f"y of point {i + 1}"

    def test_345_triangle(self):
        e = embed(DistanceMatrix([[0, 5, 4], [5, 0, 3], [4, 3, 0]]))
        assert e.k == 1
        assert e.points == (
            (Fraction(0), Fraction(0)),
            (Fraction(5), Fraction(0)),
            (Fraction(16, 5), Fraction(12, 5)),
        )

    def test_perturbed_heptagon_not_realizable(self, heptagon1):
        rows = [list(r) for r in heptagon1.rows]
        rows[5][6] = rows[6][5] = 10745
        with pytest.raises(NotRealizable):
            embed(DistanceMatrix(rows))

    def test_collinear_base_reported_distinctly(self):
        m = DistanceMatrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(CollinearBase):
            embed(m)
        e = embed(m, allow_collinear=True)
        assert e.k == 1
        assert e.points[2] == (Fraction(2), Fraction(0))

    def test_two_points(self):
        e = embed(DistanceMatrix([[0, 7], [7, 0]]))
        assert e.points == ((Fraction(0), Fraction(0)), (Fraction(7), Fraction(0)))

    def test_roundtrip_heptagons(self, heptagon1, heptagon2):
        for m in (heptagon1, heptagon2):
            assert distances_from_embedding(embed(m)) == m

    def test_embedding_convention_signs(self, heptagon1):
        e = embed(heptagon1)
        assert e.y_coeff(2) > 0
        assert e.y_coeff(6) < 0


class TestDistancesFromEmbedding:
    def test_known_pair(self, heptagon1):
        e = embed(heptagon1)
        assert e.squared_distance(3, 5) == 11135**2
        m = distances_from_embedding(e)
        assert m.entry(3, 5) == 11135
        assert m.entry(2, 6) == 20066

    def test_coincident_points(self):
        e = EmbeddedPointSet(1, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
        with pytest.raises(CoincidentPoints):
            distances_from_embedding(e)

    def test_non_integral_distance(self):
        e = EmbeddedPointSet(2, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))
        with pytest.raises(NonIntegralDistance):
            distances_from_embedding(e)


class TestConcyclic:
    def test_unit_square(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert is_concyclic_or_collinear(*pts) is True

    def test_three_collinear_plus_one(self):
        pts = [(0, 0), (1, 0), (2, 0), (3, 1)]
        assert is_concyclic_or_collinear(*pts) is False

    def test_four_collinear(self):
        pts = [(0, 0), (1, 0), (2, 0), (5, 0)]
        assert is_concyclic_or_collinear(*pts) is True

    def test_heptagon_quadruples_all_clear(self, heptagon1):
        e = embed(heptagon1)
        checked = 0
        for quad in combinations(e.points, 4):
            assert not is_concyclic_or_collinear(*quad, k=e.k)
            assert not cross_ratio_concyclic_or_collinear(quad, k=e.k)
            checked += 1
        assert checked == 35

    def test_agrees_with_circumcenter_oracle_rational(self):
        rng = random.Random(22270)
        agree = 0
        while agree < 1000:
            pts = [
                (Fraction(rng.randint(-12, 12), rng.randint(1, 4)),
                 Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
                for _ in range(4)
            ]
            if len(set(pts)) < 4:
                continue
            assert is_concyclic_or_collinear(*pts) == cross_ratio_concyclic_or_collinear(pts)
            agree += 1

    def test_agrees_with_circumcenter_oracle_quadratic(self):
        rng = random.Random(2002)
        for _ in range(300):
            k = rng.choice([2, 3, 5, 2002])
            pts = [
                (Fraction(rng.randint(-8, 8)), Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
                for _ in range(4)
            ]
            if len(set(pts)) < 4:
                continue
            assert is_concyclic_or_collinear(*pts, k=k) == cross_ratio_concyclic_or_collinear(pts, k)
        # the random draws above are never concyclic: force four points of a
        # line, and four of the circle (x - 1)^2 + k*q^2 = 1 + k, the point
        # (0, 1) and its second cuts with the lines q = 1 + m*x
        for k in (2, 3, 5, 2002):
            line = [(Fraction(t), Fraction(2 * t - 1, 3)) for t in (0, 1, 2, 5)]
            circle = [(Fraction(0), Fraction(1))]
            for m in (1, -1, 2):
                t = Fraction(2 * (1 - k * m), 1 + k * m * m)
                circle.append((t, 1 + m * t))
            for pts in (line, circle):
                assert is_concyclic_or_collinear(*pts, k=k)
                assert cross_ratio_concyclic_or_collinear(pts, k)

    def test_forced_concyclic_agreement(self):
        # points picked on the circle x^2+y^2 = 25
        pts = [(3, 4), (5, 0), (-4, 3), (0, -5)]
        assert is_concyclic_or_collinear(*pts)
        assert cross_ratio_concyclic_or_collinear(pts)


class TestOracleIndependence:
    def test_oracles_import_only_the_matrix_container(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "intpoints":
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                assert not any(alias.name.split(".")[0] == "intpoints" for alias in node.names)
        assert imported == {"DistanceMatrix"}
