import importlib
import random
from array import array
from fractions import Fraction

import pytest

from intpoints.arith import squarefree_part
from intpoints.pointset import DistanceMatrix, pointset_characteristic, verify
from intpoints.search import (
    _candidate_groups,
    CharFilter,
    SearchConfig,
    candidate_points,
    enumerate_triangles,
    extend_cliques,
    integral_pair_check,
    minimum_diameter,
    partition,
    search,
)

from .oracles import brute_force_point_sets

# the package exports the function `search`, which hides the module's name
search_module = importlib.import_module("intpoints.search")


class TestCharFilter:
    def test_parse(self):
        assert CharFilter.parse("any") == CharFilter.any_char()
        assert CharFilter.parse("2002") == CharFilter.fixed(2002)
        assert CharFilter.parse("div:6469693230") == CharFilter.divisor_of(6469693230)

    def test_admits(self):
        assert CharFilter.any_char().admits(17)
        assert CharFilter.fixed(3).admits(3)
        assert not CharFilter.fixed(3).admits(6)
        div = CharFilter.divisor_of(30)
        assert div.admits(15) and div.admits(1)
        assert not div.admits(7)

    def test_square_values_rejected(self):
        with pytest.raises(ValueError):
            CharFilter.fixed(12)
        with pytest.raises(ValueError):
            CharFilter.divisor_of(4)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(2, 1, 10)
        with pytest.raises(ValueError):
            SearchConfig(4, 10, 5)
        with pytest.raises(ValueError):
            SearchConfig(4, 1, 10, shard=(3, 2))

    def test_cluster_mode_conflicts(self):
        with pytest.raises(ValueError):
            SearchConfig(4, 1, 10, char_filter=CharFilter.fixed(3), cluster_mode=True)
        cfg = SearchConfig(4, 1, 10, cluster_mode=True)
        assert cfg.effective_filter() == CharFilter.fixed(1)


class TestEnumerateTriangles:
    def test_small(self):
        assert list(enumerate_triangles(2)) == [(2, 2, 2), (2, 2, 1), (1, 1, 1)]

    def test_char_filtered(self):
        assert list(enumerate_triangles(2, CharFilter.fixed(3))) == [(2, 2, 2), (1, 1, 1)]

    def test_single(self):
        assert list(enumerate_triangles(1)) == [(1, 1, 1)]

    def test_each_exactly_once_and_strict(self):
        seen = set()
        for a, b, c in enumerate_triangles(15):
            assert a >= b >= c >= 1 and a <= 15
            assert b + c > a
            assert (a, b, c) not in seen
            seen.add((a, b, c))
        brute = {
            (a, b, c)
            for a in range(1, 16)
            for b in range(1, a + 1)
            for c in range(1, b + 1)
            if b + c > a
        }
        assert seen == brute

    def test_cubic_growth(self):
        counts = {d: sum(1 for _ in enumerate_triangles(d)) for d in (50, 100, 200)}
        assert counts == {50: 11375, 100: 87125, 200: 681750}
        ratios = [counts[d] / d**3 for d in (50, 100, 200)]
        assert max(ratios) / min(ratios) <= 4  # each within a factor 2 of a common c*d^3


class TestCandidatePoints:
    def test_small_base(self):
        cands = candidate_points(3, 3, 3)
        coords = {(c.a, c.b, c.x, c.y_coeff) for c in cands}
        assert (3, 3, Fraction(3, 2), Fraction(3, 2)) in coords
        assert (3, 3, Fraction(3, 2), Fraction(-3, 2)) in coords

    def test_characteristic_is_exact(self):
        assert all(c.k == 5 for c in candidate_points(3, 5, 3))
        assert not any(
            (c.a, c.b) == (3, 3) for c in candidate_points(3, 5, 3)
        )

    def test_heptagon_points_present(self, heptagon1):
        from intpoints.pointset import embed

        e = embed(heptagon1)
        cands = candidate_points(22270, 2002, 22270)
        coords = {(c.x, c.y_coeff) for c in cands}
        for i in range(2, 7):
            assert (e.x(i), e.y_coeff(i)) in coords

    def test_no_axis_candidates(self):
        for d in (3, 5, 12):
            for k in (1, 2, 3, 5):
                for c in candidate_points(d, k, d):
                    assert c.y_coeff != 0

    def test_matches_naive_scan(self):
        # naive: scan all (a, b), accept strict triangles of the right characteristic
        from intpoints.pointset import triangle_characteristic

        for d, k in ((6, 1), (7, 3), (10, 6), (12, 2)):
            expected = set()
            for a in range(1, d + 1):
                for b in range(1, d + 1):
                    if a + b <= d:
                        continue
                    if triangle_characteristic(d, a, b) == k:
                        expected.add((a, b))
            got = {(c.a, c.b) for c in candidate_points(d, k, d)}
            assert got == expected, (d, k)


class TestCandidateIndex:
    @pytest.mark.parametrize("steps", [(), (10, 15, 99)])
    def test_squarefree_table(self, monkeypatch, steps):
        # built at once, or grown in place from a small table; growing past
        # 15 and 99 starts the new entries at the squares 16 and 100
        monkeypatch.setattr(search_module, "_SQF", array("q", [0, 1]))
        expected = [0] + [squarefree_part(n) for n in range(1, 5001)]
        for limit in (*steps, 5000):
            assert list(search_module._spf_sieve(limit)) == expected[: limit + 1]

    def test_filters_match_unfiltered_groups(self):
        # 191 and 1009 are primes above 3*d for every d here
        bounds = (30, 2002, 6469693230, 30 * 191, 1009)
        for d in range(1, 61):
            full = _candidate_groups(d, d, CharFilter.any_char())
            for bound in bounds:
                got = _candidate_groups(d, d, CharFilter.divisor_of(bound))
                assert got == {k: v for k, v in full.items() if bound % k == 0}, (d, bound)
            for k in (1, 2, 3, 15, 2002, *sorted(full)[:3]):
                got = _candidate_groups(d, d, CharFilter.fixed(k))
                assert got == ({k: full[k]} if k in full else {}), (d, k)

    def test_candidate_points_beyond_base(self):
        # with d_max > d the distances to the base points may exceed d
        from intpoints.pointset import triangle_characteristic

        for d, k, d_max in ((6, 1, 9), (7, 15, 12), (10, 6, 17), (12, 2, 13)):
            got = candidate_points(d, k, d_max)
            expected = {
                (a, b)
                for a in range(1, d_max + 1)
                for b in range(1, d_max + 1)
                if abs(a - b) < d < a + b and triangle_characteristic(d, a, b) == k
            }
            assert {(c.a, c.b) for c in got} == expected, (d, k, d_max)
            within = {(c.a, c.b, c.x, abs(c.y_coeff)) for c in got if max(c.a, c.b) <= d}
            groups = _candidate_groups(d, d, CharFilter.any_char()).get(k, [])
            assert within == {
                (a, b, Fraction(x, 2 * d), Fraction(s, 2 * d)) for a, b, x, s in groups
            }


class TestIntegralPairCheck:
    def test_heptagon_pairs(self, heptagon1):
        cands = candidate_points(22270, 2002, 22270)
        by_key = {(c.a, c.b, c.sign): c for c in cands}
        p4 = by_key[(16637, 11397, 1)]
        p6 = by_key[(8908, 20698, 1)]
        assert integral_pair_check(p4, p6) == 11135
        p3 = by_key[(22098, 21488, 1)]
        p7 = by_key[(8636, 13746, -1)]
        assert integral_pair_check(p3, p7) == 20066

    def test_mirror_chord_not_integral(self):
        cands = candidate_points(3, 3, 3)
        up = next(c for c in cands if (c.a, c.b, c.sign) == (3, 3, 1))
        down = next(c for c in cands if (c.a, c.b, c.sign) == (3, 3, -1))
        # squared chord = k*(2q)^2 = 27, not a perfect square
        assert integral_pair_check(up, down) is None

    def test_mismatched_bases_rejected(self):
        c1 = candidate_points(3, 3, 3)[0]
        c2 = candidate_points(4, 15, 4)[0]
        with pytest.raises(ValueError):
            integral_pair_check(c1, c2)


class TestExtendCliques:
    def test_triangles_from_single_candidates(self):
        cands = candidate_points(4, 15, 4)
        cfg = SearchConfig(3, 4, 4, CharFilter.fixed(15))
        out = list(extend_cliques(cands, 4, cfg))
        assert all(m.n == 3 for m in out)
        assert all(pointset_characteristic(m) == 15 for m in out)
        assert len(out) == len({m.rows for m in out})

    def test_heptagon_rediscovered(self, heptagon1):
        cands = candidate_points(22270, 2002, 22270)
        cfg = SearchConfig(7, 22270, 22270, CharFilter.fixed(2002))
        out = list(extend_cliques(cands, 22270, cfg))
        assert out == [heptagon1]

    def test_shuffled_candidates_same_results(self):
        cands = candidate_points(16, 15, 16)
        cfg = SearchConfig(4, 16, 16, CharFilter.fixed(15))
        baseline = {m.rows for m in extend_cliques(cands, 16, cfg)}
        shuffled = list(cands)
        random.Random(3).shuffle(shuffled)
        assert {m.rows for m in extend_cliques(shuffled, 16, cfg)} == baseline

    def test_one_sign_of_each_candidate(self):
        cands = candidate_points(65, 1, 65)
        cfg = SearchConfig(4, 65, 65, CharFilter.fixed(1))
        full = {m.rows for m in extend_cliques(cands, 65, cfg)}
        for sign in (1, -1):
            half = list(extend_cliques([c for c in cands if c.sign == sign], 65, cfg))
            assert half
            for m in half:
                assert verify(m).passed
                assert m.rows in full


class TestSearch:
    def test_unit_triangle(self):
        out = list(search(SearchConfig(3, 1, 1)))
        assert [m.rows for m in out] == [((0, 1, 1), (1, 0, 1), (1, 1, 0))]

    def test_heptagon_unique_at_its_diameter(self, heptagon1):
        out = list(search(SearchConfig(7, 22270, 22270, CharFilter.fixed(2002))))
        assert out == [heptagon1]

    def test_all_output_verifies(self):
        for m in search(SearchConfig(4, 1, 40)):
            report = verify(m)
            assert report.passed, report.lines()

    def test_matches_brute_force_n4(self):
        ours = {m.rows for m in search(SearchConfig(4, 1, 30))}
        brute = brute_force_point_sets(4, 30)
        assert ours == brute

    def test_no_duplicates(self):
        out = [m.rows for m in search(SearchConfig(4, 1, 35))]
        assert len(out) == len(set(out))

    def test_divisor_filter_subsets_any(self):
        allsets = {m.rows for m in search(SearchConfig(4, 1, 25))}
        restricted = {
            m.rows
            for m in search(SearchConfig(4, 1, 25, CharFilter.divisor_of(6469693230)))
        }
        assert restricted <= allsets
        assert all(
            6469693230 % pointset_characteristic(DistanceMatrix(r)) == 0 for r in restricted
        )

    def test_divisor_lookup_path_matches_scan(self):
        # the divisor filter's rough-part lookup against the unfiltered groups
        from intpoints.search import _candidate_groups

        for d in (10, 17, 25, 40):
            lookup = _candidate_groups(d, d, CharFilter.divisor_of(30))
            full = _candidate_groups(d, d, CharFilter.any_char())
            assert lookup == {k: v for k, v in full.items() if 30 % k == 0}, d

    def test_cluster_mode_only_char1(self):
        out = list(search(SearchConfig(4, 1, 40, cluster_mode=True)))
        assert all(pointset_characteristic(m) == 1 for m in out)

    def test_sharding_partitions_results(self):
        cfg = SearchConfig(4, 1, 20)
        full = {m.rows for m in search(cfg)}
        pieces = []
        for shard_cfg in partition(cfg, 4):
            pieces.append({m.rows for m in search(shard_cfg)})
        merged = set().union(*pieces)
        assert merged == full
        assert sum(len(p) for p in pieces) == len(merged)  # disjoint keys

    def test_checkpoint_resume(self, tmp_path):
        ck = tmp_path / "ck.txt"
        cfg = SearchConfig(4, 1, 15)
        first = list(search(cfg, checkpoint=str(ck)))
        assert ck.exists()
        keys = {tuple(map(int, line.split())) for line in ck.read_text().splitlines()}
        assert all(d <= 15 for d, _ in keys)
        # every key done: nothing re-emitted
        assert list(search(cfg, checkpoint=str(ck))) == []
        # a fresh run still reproduces the original results
        assert {m.rows for m in search(cfg)} == {m.rows for m in first}

    def test_rectangle_needs_general_position_off(self):
        # the 3-4-5 rectangle: four concyclic points with integral distances
        rectangle = ((0, 5, 4, 3), (5, 0, 3, 4), (4, 3, 0, 5), (3, 4, 5, 0))
        relaxed = SearchConfig(4, 5, 5, require_general_position=False)
        assert [m.rows for m in search(relaxed)] == [rectangle]
        assert list(search(SearchConfig(4, 5, 5))) == []

    def test_trapezoid_of_two_mirror_pairs_rejected(self):
        # two mirror pairs span an isosceles trapezoid: four concyclic points,
        # none of them a base point, which only the clique search can test
        trapezoid = (0, 528, 424, 424, 289, 289)
        relaxed = SearchConfig(6, 528, 528, CharFilter.fixed(1), require_general_position=False)
        assert trapezoid in [m.rows[0] for m in search(relaxed)]
        assert list(search(SearchConfig(6, 528, 528, CharFilter.fixed(1)))) == []


class TestMinimumDiameter:
    def test_triangle(self):
        assert minimum_diameter(3, 10) == 1

    def test_quadrilateral(self):
        assert minimum_diameter(4, 20) == 8

    def test_absent(self):
        assert minimum_diameter(7, 12) is None


class TestPartition:
    def test_single_shard_is_original(self):
        cfg = SearchConfig(4, 1, 20)
        assert partition(cfg, 1) == [cfg]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            partition(SearchConfig(4, 1, 20), 0)


@pytest.mark.slow
class TestSecondDiameterSlow:
    def test_three_heptagons_known(self, heptagon2):
        """At diameter 66810 with characteristic 2002 there are exactly two
        sets in general position: the shipped certificate and one more."""
        out = list(search(SearchConfig(7, 66810, 66810, CharFilter.fixed(2002))))
        assert len(out) == 2
        assert heptagon2 in out
        extra = next(m for m in out if m != heptagon2)
        assert extra.rows[0] == (0, 66810, 66294, 49911, 27744, 26724, 25908)
        assert verify(extra).passed

    def test_primorial_restricted_search_at_22270(self, heptagon1):
        """The characteristic-restricted mode (divisors of the primorial
        bound) re-derives the first certificate at its diameter."""
        cfg = SearchConfig(7, 22270, 22270, CharFilter.divisor_of(6469693230))
        assert list(search(cfg)) == [heptagon1]
