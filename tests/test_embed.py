import ast
import math
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
    verify,
)
from intpoints.search import SearchConfig, search

from .conftest import HEPTAGON_1_COORDS
from .oracles import cross_ratio_concyclic_or_collinear, fraction_embed


class TestEmbed:
    def test_heptagon1_exact_coordinates(self, heptagon1):
        e = embed(heptagon1)
        assert e.k == 2002
        for i, (x, q) in enumerate(HEPTAGON_1_COORDS):
            assert e.points[i] == (Fraction(x), Fraction(q)), f"point {i + 1}"

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
        assert e.points[2][1] > 0
        assert e.points[6][1] < 0


class TestNotRealizableDetail:
    """The exact text of each way ``embed`` can fail, as ``verify`` reports it."""

    @pytest.mark.parametrize(
        "rows, detail",
        [
            ([[0, 2, 5], [2, 0, 2], [5, 2, 0]], "points 1, 2 and 3 violate a triangle inequality"),
            (
                [[0, 8, 8, 7], [8, 0, 4, 2], [8, 4, 0, 8], [7, 2, 8, 0]],
                "squared height of point 4 is 663/256, not a rational square times the radicand 15",
            ),
            (
                [[0, 5, 6, 4], [5, 0, 7, 7], [6, 7, 0, 3], [4, 7, 3, 0]],
                "no y sign for point 4 matches its distance to point 3",
            ),
        ],
        ids=["triangle-inequality", "not-a-square", "no-sign"],
    )
    def test_detail(self, rows, detail):
        report = verify(rows)
        assert not report.realizable.passed
        assert report.realizable.detail == detail

    def test_distance_mismatch(self, heptagon1):
        rows = [list(r) for r in heptagon1.rows]
        rows[5][6] = rows[6][5] = rows[5][6] + 1
        report = verify(rows)
        assert not report.realizable.passed
        assert report.realizable.detail == "embedded distance between points 6 and 7 does not match the matrix"


def outcome(embedder, m, allow_collinear):
    """(k, points) of an embedding, or the text of its failure."""
    try:
        result = embedder(m, allow_collinear)
    except (NotRealizable, ValueError) as exc:
        return str(exc)
    return (result.k, result.points) if isinstance(result, EmbeddedPointSet) else result


class TestAgainstFractionOracle:
    """``embed`` against the Fraction reference in ``oracles.fraction_embed``."""

    @staticmethod
    def check(matrices):
        for m in matrices:
            for allow in (False, True):
                assert outcome(embed, m, allow) == outcome(fraction_embed, m, allow), (m.rows, allow)
                try:
                    e = embed(m, allow)
                except NotRealizable:
                    continue
                # the frame is in lowest terms, divides the search's scale
                # 2*d12, is rebuilt from its Fraction view and realizes m
                assert math.gcd(e.scale, *e.xs, *e.ys) == 1
                assert 2 * m.entry(0, 1) % e.scale == 0
                assert EmbeddedPointSet.of_points(e.k, e.points) == e
                assert distances_from_embedding(e) == m

    def test_random_matrices(self):
        rng = random.Random(22270)
        matrices = []
        for _ in range(3000):
            n = rng.randint(2, 6)
            hi = rng.choice([6, 12, 30])
            rows = [[0] * n for _ in range(n)]
            for i, j in combinations(range(n), 2):
                rows[i][j] = rows[j][i] = rng.randint(1, hi)
            matrices.append(DistanceMatrix(rows))
        outcomes = {type(outcome(embed, m, True)) for m in matrices}
        assert outcomes == {tuple, str}
        self.check(matrices)

    def test_collinear_points(self):
        rng = random.Random(66810)
        matrices = []
        for _ in range(300):
            xs = sorted(rng.sample(range(15), rng.randint(2, 5)))
            matrices.append(DistanceMatrix([[abs(a - b) for b in xs] for a in xs]))
        self.check(matrices)

    def test_searched_relabeled_and_corrupted(self, heptagon1, heptagon2):
        rng = random.Random(2002)
        found = list(search(SearchConfig(4, 1, 40))) + list(search(SearchConfig(5, 73, 90)))
        matrices = found + [heptagon1, heptagon2]
        for m in found[::4] + [heptagon1, heptagon2]:
            perm = list(range(m.n))
            rng.shuffle(perm)
            matrices.append(m.permuted(perm))
            rows = [list(r) for r in m.rows]
            i, j = rng.sample(range(m.n), 2)
            rows[i][j] = rows[j][i] = max(1, rows[i][j] + rng.choice([-1, 1]))
            matrices.append(DistanceMatrix(rows))
        self.check(matrices)


class TestEmbedFrame:
    """``embed``'s integer frame: point i at (xs[i], ys[i]*sqrt(k)) / scale."""

    def test_frame_realizes_the_matrix(self, heptagon1, heptagon2):
        found = list(search(SearchConfig(4, 1, 40))) + list(search(SearchConfig(5, 73, 90)))
        for m in found + [heptagon1, heptagon2]:
            e = embed(m)
            for i, j in combinations(range(m.n), 2):
                assert (e.xs[i] - e.xs[j]) ** 2 + e.k * (e.ys[i] - e.ys[j]) ** 2 == (e.scale * m.entry(i, j)) ** 2

    def test_heptagon1_frame(self, heptagon1):
        # the search's frame over 2*d12 = 44540, divided by its gcd 20
        e = embed(heptagon1)
        assert (e.k, e.scale, e.xs[3], e.ys[3]) == (2002, 2227, 32142553, 411864)

    def test_single_point(self):
        assert embed(DistanceMatrix([[0]])) == EmbeddedPointSet(1, 1, (0,), (0,))
        assert embed(DistanceMatrix([[0]])).points == ((0, 0),)

    @pytest.mark.parametrize(
        "scale, xs, ys", [(2, (0, 2), (0, 4)), (0, (0, 1), (0, 0)), (-1, (0, 1), (0, 0))]
    )
    def test_frame_not_in_lowest_terms_rejected(self, scale, xs, ys):
        with pytest.raises(ValueError, match=f"frame over scale {scale} is not in lowest terms"):
            EmbeddedPointSet(1, scale, xs, ys)


class TestDistancesFromEmbedding:
    def test_known_pair(self, heptagon1):
        m = distances_from_embedding(embed(heptagon1))
        assert m.entry(3, 5) == 11135
        assert m.entry(2, 6) == 20066

    def test_coincident_points(self):
        e = EmbeddedPointSet.of_points(1, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
        with pytest.raises(CoincidentPoints):
            distances_from_embedding(e)

    def test_non_integral_distance(self):
        e = EmbeddedPointSet.of_points(2, ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))
        with pytest.raises(NonIntegralDistance):
            distances_from_embedding(e)

    @pytest.mark.parametrize("k", [-1, 0])
    def test_radicand_below_one_rejected(self, k):
        # with k = -1 the two points below would be at distance 0
        with pytest.raises(ValueError, match=f"radicand must be >= 1, got {k}"):
            EmbeddedPointSet.of_points(k, ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))


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

    @pytest.mark.parametrize("k", [-1, 0])
    def test_radicand_below_one_rejected(self, k):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        with pytest.raises(ValueError, match=f"radicand must be >= 1, got {k}"):
            is_concyclic_or_collinear(*pts, k=k)

    @pytest.mark.parametrize("bad", [0.5, "1/2", True], ids=["float", "str", "bool"])
    def test_non_rational_coordinate_rejected(self, bad):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        pts[2] = (2, bad)
        with pytest.raises(TypeError, match=f"coordinate {bad!r} of point 3 is not an int or a Fraction"):
            is_concyclic_or_collinear(*pts)

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
