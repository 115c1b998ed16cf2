import gc
import importlib
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from intpoints.arith import factorize, squarefree_part
from intpoints.cli import _record, main
from intpoints.modplane import mod_max_general_position
from intpoints.pointset import (
    DistanceMatrix,
    canonical_form,
    embed,
    pointset_characteristic,
    verify,
)
from intpoints.search import (
    _adjacency,
    _candidate_groups,
    _clique_stream,
    _sign_groups,
    CharFilter,
    CheckpointError,
    SearchConfig,
    enumerate_triangles,
    minimum_diameter,
    search,
)

from .oracles import (
    brute_force_point_sets,
    cross_ratio_concyclic_or_collinear,
    naive_candidates,
    sympy_triangle_characteristic,
)

# the package exports the function `search`, which hides the module's name
search_module = importlib.import_module("intpoints.search")
arith_module = importlib.import_module("intpoints.arith")


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


class TestEnumerateTriangles:
    def test_small(self):
        assert list(enumerate_triangles(2)) == [(2, 2, 2), (2, 2, 1), (1, 1, 1)]

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
        # (3/2, (3/2)*sqrt(3)) scaled by 2d = 6, the apex of the equilateral triangle
        assert (3, 3, 9, 9) in _candidate_groups(3, CharFilter.fixed(3))[3]

    def test_characteristic_is_exact(self):
        for k in (2, 3, 5, 7, 35):
            got = _candidate_groups(3, CharFilter.fixed(k))
            assert set(got) <= {k}
            assert ((3, 3) in {(a, b) for a, b, _, _ in got.get(k, [])}) == (k == 3)

    def test_heptagon_points_present(self, heptagon1):
        from intpoints.pointset import embed

        e = embed(heptagon1)
        d = 22270
        bucket = _candidate_groups(d, CharFilter.fixed(2002))[2002]
        coords = {(Fraction(x, 2 * d), Fraction(s, 2 * d)) for _, _, x, s in bucket}
        for i in range(2, 7):
            x, q = e.points[i]
            assert (x, abs(q)) in coords

    def test_no_axis_candidates(self):
        for d in (3, 5, 12):
            for k in (1, 2, 3, 5):
                for _, _, _, s in _candidate_groups(d, CharFilter.fixed(k)).get(k, []):
                    assert s > 0

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
            got = {(a, b) for a, b, _, _ in _candidate_groups(d, CharFilter.fixed(k)).get(k, [])}
            assert got == expected, (d, k)


class TestCandidateIndex:
    @staticmethod
    def assert_sieve_exact(d, k):
        v_side, u_side = search_module._spf_sieve(d, k, CharFilter.fixed(k).primes)
        assert v_side == [squarefree_part(d * d - v * v) for v in range(d)], (d, k)
        us = range(d + 1, 2 * d + 1)
        assert u_side == [squarefree_part(k * (u * u - d * d)) for u in us], (d, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 15, 30, 1009, 2002, 6469693230])
    def test_sieve_matches_squarefree_part(self, k):
        for d in range(1, 301):
            self.assert_sieve_exact(d, k)

    @pytest.mark.parametrize("d", [2048, 2187, 6552, 19264, 22200, 22270])
    def test_sieve_where_a_prime_square_divides_2d(self, d):
        # 2d = 2^12, 2*3^7, 2^4*3^2*7*13, 2^7*7*43, 2^4*3*5^2*37 and
        # 2^2*5*17*131: primes with p^E || 2d and E >= 2, some of which
        # divide k = 30 or 2002 and some not
        for k in (1, 30, 2002):
            self.assert_sieve_exact(d, k)

    def test_fixed_window_factorizes_k_once(self, monkeypatch, capsys):
        # k's primes are found when the filter is made, not per diameter
        factored = []
        real = arith_module.factorize

        def recording(n):
            factored.append(n)
            return real(n)

        monkeypatch.setattr(arith_module, "factorize", recording)
        monkeypatch.setattr(search_module, "factorize", recording)
        argv = ["search", "--n", "7", "--char", "2002", "--dmin", "3000", "--dmax", "3019"]
        assert main(argv) == 0
        assert capsys.readouterr().err == "# 0 point set(s)\n"
        assert sum(1 for n in factored if n % 2002 == 0) <= 1

    def test_filters_match_unfiltered_groups(self):
        # 191 and 1009 are primes above 3*d for every d here
        bounds = (30, 2002, 6469693230, 30 * 191, 1009)
        for d in range(1, 61):
            full = _candidate_groups(d, CharFilter.any_char())
            for bound in bounds:
                got = _candidate_groups(d, CharFilter.divisor_of(bound))
                assert got == {k: v for k, v in full.items() if bound % k == 0}, (d, bound)
            for k in (1, 2, 3, 15, 2002, *sorted(full)[:3]):
                got = _candidate_groups(d, CharFilter.fixed(k))
                assert got == ({k: full[k]} if k in full else {}), (d, k)

    def test_matches_naive_scan_oracle(self):
        # every (a, b) with a strict triangle (d, a, b), its characteristic
        # by sympy, and the scaled point computed directly: X = 2d*x and
        # k*S^2 = (2d*y)^2 with y^2 = a^2 - x^2
        filters = [CharFilter.parse(f) for f in ("any", "div:30", "div:2002", "1", "2", "15")]
        for d in range(1, 41):
            scan = {}
            for a in range(1, d + 1):
                for b in range(1, d + 1):
                    if not abs(a - b) < d < a + b:
                        continue
                    k = sympy_triangle_characteristic(d, a, b)
                    x = a * a - b * b + d * d
                    ks2 = 4 * d * d * a * a - x * x
                    s = math.isqrt(ks2 // k)
                    assert k * s * s == ks2 and s > 0
                    scan.setdefault(k, set()).add((a, b, x, s))
            for filt in filters:
                got = _candidate_groups(d, filt)
                assert all(bucket == sorted(bucket) for bucket in got.values())
                expected = {k: v for k, v in scan.items() if filt.admits(k)}
                assert {k: set(v) for k, v in got.items()} == expected, (d, filt)
                assert sum(map(len, got.values())) == sum(map(len, expected.values()))


class TestDeadKeys:
    """The index decides the keys that hold no n-point set on their (u, v)
    pairs: the class count, and at n = 4 the parallelogram diagonal of a
    key of one class pair.  Such a key keeps an empty bucket."""

    @pytest.mark.parametrize("n, d_min, d_max", [(4, 1, 100), (5, 1, 60), (5, 300, 300)])
    def test_dead_keys_hold_no_set(self, n, d_min, d_max):
        dead = 0
        for d in range(d_min, d_max + 1):
            full = _candidate_groups(d, CharFilter.any_char())
            pruned = _candidate_groups(d, CharFilter.any_char(), n)
            assert pruned.keys() == full.keys()
            for k, bucket in pruned.items():
                if bucket:
                    assert bucket == full[k]
                else:
                    dead += 1
                    assert list(_clique_stream(d, k, full[k], n)) == [], (d, k)
        assert dead

    def test_counts_at_n4_window(self):
        # d = 81..100: 27 229 of 31 899 keys, 26 681 by the diagonal and
        # 548 by the class count, holding 53 910 of the 83 140 entries
        keys = entries = dead = diagonal = dead_entries = 0
        for d in range(81, 101):
            full = _candidate_groups(d, CharFilter.any_char())
            pruned = _candidate_groups(d, CharFilter.any_char(), 4)
            for k, bucket in full.items():
                keys += 1
                entries += len(bucket)
                if not pruned[k]:
                    dead += 1
                    dead_entries += len(bucket)
                    diagonal += len(bucket) == 2 and bucket[0][:2] == bucket[1][1::-1]
        assert (keys, entries) == (31899, 83140)
        assert (dead, diagonal, dead_entries) == (27229, 26681, 53910)

    def test_search_streams_live_keys_only(self, monkeypatch):
        streamed = []
        original = search_module._clique_stream

        def recording(d, k, classes, n):
            assert classes
            streamed.append((d, k))
            return original(d, k, classes, n)

        monkeypatch.setattr(search_module, "_clique_stream", recording)
        out = list(search(SearchConfig(4, 81, 100)))
        assert len(out) == 1421
        assert len(streamed) == 31899 - 27229


def scaled_square(k, p, q):
    """(2d)^2 times the squared distance of the signed points p = (X, Y) and
    q over a base of length d, which lie at (X/(2d), (Y/(2d))*sqrt(k))."""
    return (p[0] - q[0]) ** 2 + k * (p[1] - q[1]) ** 2


class TestIntegralPairCheck:
    """Integral and non-integral distances between signed index entries."""

    def test_heptagon_pairs(self):
        d, k = 22270, 2002
        bucket = _candidate_groups(d, CharFilter.fixed(k))[k]
        by_key = {(a, b, sign): (x, sign * s) for a, b, x, s in bucket for sign in (1, -1)}
        p4 = by_key[(16637, 11397, 1)]
        p6 = by_key[(8908, 20698, 1)]
        assert scaled_square(k, p4, p6) == (2 * d * 11135) ** 2
        p3 = by_key[(22098, 21488, 1)]
        p7 = by_key[(8636, 13746, -1)]
        assert scaled_square(k, p3, p7) == (2 * d * 20066) ** 2

    def test_mirror_chord_not_integral(self):
        # the only class at d = 3, k = 3 is the apex of the equilateral
        # triangle; its mirror chord has squared length k*(2q)^2 = 27
        [(_, _, x, s)] = _candidate_groups(3, CharFilter.fixed(3))[3]
        assert scaled_square(3, (x, s), (x, -s)) == 36 * 27
        assert _adjacency(3, 3, [(3, 3, x, s)], [0])[0] == [0, 0]


class TestExtendCliques:
    """The clique stage on one bucket of the candidate index."""

    def test_triangles_from_single_candidates(self):
        out = list(_clique_stream(4, 15, _candidate_groups(4, CharFilter.fixed(15))[15], 3))
        assert out
        assert all(m.n == 3 for m in out)
        assert all(pointset_characteristic(m) == 15 for m in out)
        assert len(out) == len({m.rows for m in out})

    def test_heptagon_rediscovered(self, heptagon1):
        bucket = _candidate_groups(22270, CharFilter.fixed(2002))[2002]
        assert list(_clique_stream(22270, 2002, bucket, 7)) == [heptagon1]

    def test_shuffled_candidates_same_results(self):
        # the class order fixes only the order of the output; shuffled, the
        # row class of a reflection pair may be either of its two classes
        bucket = _candidate_groups(65, CharFilter.fixed(1))[1]
        baseline = {m.rows for m in _clique_stream(65, 1, bucket, 4)}
        assert len(baseline) == 6
        for seed in range(4):
            shuffled = list(bucket)
            random.Random(seed).shuffle(shuffled)
            assert {m.rows for m in _clique_stream(65, 1, shuffled, 4)} == baseline

    @pytest.mark.parametrize("d, k", [(17, 35), (24, 1), (27, 35), (32, 15)])
    def test_same_results_and_order_as_search(self, d, k):
        # the bucket of the unfiltered index gives what the filtered search
        # emits, and the unfiltered search emits it in the same order
        cfg = SearchConfig(4, d, d, CharFilter.fixed(k))
        expected = list(search(cfg))
        assert len(expected) >= 2
        bucket = _candidate_groups(d, CharFilter.any_char())[k]
        assert list(_clique_stream(d, k, bucket, 4)) == expected
        unfiltered = search(replace(cfg, char_filter=CharFilter.any_char()))
        assert [m for m in unfiltered if pointset_characteristic(m) == k] == expected


def naive_vertices(d, k):
    """Naive candidates of characteristic k in the clique engine's vertex
    order: class i is the i-th (a, b) in sorted order, vertex 2i lies below
    the base line and vertex 2i + 1 above it."""
    cands = [c for c in naive_candidates(d) if c[4] == k]
    return sorted(cands, key=lambda c: (c[0], c[1], c[3]))


def brute_force_cliques(d, k, n):
    """Canonical rows of every set of the base points and n - 2 naive
    candidates at pairwise integral distances at most d, by enumerating all
    subsets, each with whether it is in general position."""
    return {rows: passed for _, rows, passed in brute_force_vertex_cliques(d, k, n)}


def brute_force_vertex_cliques(d, k, n):
    """Every clique of ``brute_force_cliques`` as (its vertices in
    ``naive_vertices`` order, canonical rows, whether it is in general
    position), in lexicographic order of the vertex tuples."""
    cands = naive_vertices(d, k)
    dist = {}
    for i, j in combinations(range(len(cands)), 2):
        sq = (cands[i][2] - cands[j][2]) ** 2 + k * (cands[i][3] - cands[j][3]) ** 2
        t = math.isqrt(sq.numerator)
        if sq.denominator == 1 and t * t == sq.numerator and t <= d:
            dist[i, j] = t
    found = []
    for chosen in combinations(range(len(cands)), n - 2):
        if not all(pair in dist for pair in combinations(chosen, 2)):
            continue
        rows = [[0] * n for _ in range(n)]
        rows[0][1] = rows[1][0] = d
        for ci, i in enumerate(chosen):
            rows[0][ci + 2] = rows[ci + 2][0] = cands[i][0]
            rows[1][ci + 2] = rows[ci + 2][1] = cands[i][1]
        for (ci, i), (cj, j) in combinations(enumerate(chosen), 2):
            rows[ci + 2][cj + 2] = rows[cj + 2][ci + 2] = dist[i, j]
        m, _ = canonical_form(DistanceMatrix(rows))
        found.append((chosen, m.rows, verify(m).passed))
    return found


def assert_matches_brute_force(d, k):
    # the key has cliques, though at d = 16, k = 15 none in general position
    cliques = 0
    for n in (4, 5):
        brute = brute_force_cliques(d, k, n)
        out = [m.rows for m in search(SearchConfig(n, d, d, CharFilter.fixed(k)))]
        assert len(out) == len(set(out))
        assert set(out) == {rows for rows, passed in brute.items() if passed}, (d, k, n)
        cliques += len(brute)
    assert cliques


class TestReflectedEdgeBuild:
    """The edge build tests one class pair of each orbit under the reflection
    (a, b) <-> (b, a) in the perpendicular bisector of the base, and joins
    the images.  Checked against cliques of naively scanned candidates."""

    @pytest.mark.parametrize("d, k", [(100, 1), (65, 1), (105, 1), (120, 1), (16, 15)])
    def test_matches_brute_force(self, d, k):
        assert_matches_brute_force(d, k)

    def test_square_k_mirror_partners_adjacent(self):
        # at d = 48 and k = 1 the two mirror partners of each of the classes
        # (25, 25), (26, 26), (30, 30), (29, 35) and (35, 29) are an
        # integral distance 2|y| <= d apart: an edge within one class.  No
        # class has a^2 + b^2 = d^2, so each kite of the base and a mirror
        # pair is in general position.
        d = 48
        assert_matches_brute_force(d, 1)
        classes, image_of = key_classes(d, 1)
        adj, _ = _adjacency(d, 1, classes, image_of)
        found = list(search(SearchConfig(4, d, d, CharFilter.fixed(1))))
        adjacent = set()
        for i, (a, b, _, s) in enumerate(classes):
            assert a * a + b * b != d * d
            chord = Fraction(s, d)  # 2|y|, with |y| = S/(2d)
            integral = chord.denominator == 1 and chord <= d
            assert (adj[2 * i] >> (2 * i + 1) & 1) == integral, (a, b)
            if integral:
                t = int(chord)
                rows = ((0, d, a, a), (d, 0, b, b), (a, b, 0, t), (a, b, t, 0))
                assert canonical_form(DistanceMatrix(rows))[0] in found
                adjacent.add((a, b))
        assert adjacent == {(25, 25), (26, 26), (30, 30), (29, 35), (35, 29)}


def vertex_set(rows, verts, k):
    """The least of the two vertex sets, one the base-line mirror of the
    other, whose points have the distances of ``rows`` to the base points
    and to each other."""
    position = {(c[0], c[1]): i for i, c in enumerate(verts[::2])}
    classes = [position[rows[0][j], rows[1][j]] for j in range(2, len(rows))]
    found = []
    for sides in product((0, 1), repeat=len(classes)):
        chosen = [2 * i + side for i, side in zip(classes, sides)]
        points = [verts[v] for v in chosen]
        if all(
            (p[2] - q[2]) ** 2 + k * (p[3] - q[3]) ** 2 == rows[i + 2][j + 2] ** 2
            for (i, p), (j, q) in combinations(enumerate(points), 2)
        ):
            found.append(tuple(sorted(chosen)))
    return min(found)


class TestOrbitLeaders:
    """Of each orbit of cliques under the mirror M in the base line and the
    reflection R in the perpendicular bisector, only the least reaches
    canonical_form, and the output is still every clique's set, first seen
    first.  Checked against cliques of naively scanned candidates."""

    @pytest.mark.parametrize("d, k", [(100, 1), (65, 1), (48, 1), (16, 15)])
    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_brute_force(self, monkeypatch, d, k, n):
        verts = naive_vertices(d, k)
        position = {(c[0], c[1]): i for i, c in enumerate(verts[::2])}
        cliques = [
            (chosen, rows) for chosen, rows, passed in brute_force_vertex_cliques(d, k, n) if passed
        ]

        def is_leader(chosen):
            # R takes class (a, b) to class (b, a) and keeps the side
            r = [2 * position[verts[v][1], verts[v][0]] + (v & 1) for v in chosen]
            images = ([v ^ 1 for v in chosen], r, [v ^ 1 for v in r])
            return all(chosen <= tuple(sorted(image)) for image in images)

        leaders = [chosen for chosen, _ in cliques if is_leader(chosen)]
        reached = []
        original = search_module.canonical_form

        def recording(m):
            reached.append(vertex_set(m.rows, verts, k))
            return original(m)

        monkeypatch.setattr(search_module, "canonical_form", recording)
        out = [m.rows for m in search(SearchConfig(n, d, d, CharFilter.fixed(k)))]
        assert reached == leaders
        assert out == list(dict.fromkeys(rows for _, rows in cliques))
        assert not cliques or len(leaders) < len(cliques)


def key_classes(d, k):
    """One bucket of ``_candidate_groups`` and the index of each class's
    image under the bisector reflection."""
    classes = _candidate_groups(d, CharFilter.fixed(k))[k]
    position = {(a, b): i for i, (a, b, _, _) in enumerate(classes)}
    return classes, [position[b, a] for a, b, _, _ in classes]


def all_pairs_adjacency(d, k):
    """Neighbour bitsets over ``naive_vertices(d, k)`` from a test of every
    vertex pair, and the number of pairs at integral distance at most d
    that lie on a line through (0, 0), on one through (d, 0), and on a
    circle through both: the edge build's three base tests."""
    verts = naive_vertices(d, k)
    base = [(Fraction(0), Fraction(0)), (Fraction(d), Fraction(0))]
    adj = [0] * len(verts)
    rejected = [0, 0, 0]
    for i, j in combinations(range(len(verts)), 2):
        p, q = verts[i][2:4], verts[j][2:4]
        sq = (p[0] - q[0]) ** 2 + k * (p[1] - q[1]) ** 2
        t = math.isqrt(sq.numerator)
        if sq.denominator != 1 or t * t != sq.numerator or t > d:
            continue
        kinds = [(p[0] - b[0]) * (q[1] - b[1]) == (q[0] - b[0]) * (p[1] - b[1]) for b in base]
        kinds.append(cross_ratio_concyclic_or_collinear(base + [p, q], k))
        rejected = [n + kind for n, kind in zip(rejected, kinds)]
        if not any(kinds):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj, rejected


def multiplicity(n, p):
    """The exponent of the prime p in n > 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def screen_flips(c, q):
    """The relations of the signs of y (0 equal, 1 opposite) with which the
    upper vertex of a class with sign key c and a vertex of a class with
    sign key q can pass the 4d^2 screen, by the keys alone."""
    care, zero, wild, none, bits = c
    care2, zero2, wild2, none2, bits2 = q
    if none & zero2 or zero & none2:
        return ()
    common = care & care2 | wild & zero2 | zero & wild2
    differ = (bits ^ bits2) & common
    return tuple(flip for flip in (0, 1) if differ == (common if flip else 0))


def image_key(key):
    """The sign key of the bisector image of a class: every sign flipped."""
    care, zero, wild, none, bits = key
    return care, zero, wild, none, bits ^ (care | wild)


class TestSignBlocks:
    """At an odd prime p with p^e || d, a signed vertex with p^v || gcd(X, Y)
    and v < e has X'/Y' = +-s mod p for one root s of -k, and two vertices
    whose signs differ pass no 4d^2 screen.  A wild vertex, e <= v < 2e,
    passes it with a vertex with v = 0 only where its X'/Y' has that
    vertex's sign.  The edge build tests only the vertex pairs whose signs
    agree where both are constrained."""

    # the pairs tested on a key: on the first heptagon's key, 2 * 5 * 17 *
    # 131, 16 415 reflection orbits of (class pair, sign relation) pass the
    # screen, and its wild vertices (v = e = 1) all have neither sign; 3 700
    # of them join two lows on one ray from (0, 0) and are not formed.  On
    # the second's, three times that d, 73 305 pass and 9 322 are not formed
    TESTED = {(22270, 2002): 12715, (66810, 2002): 63983}

    @pytest.mark.parametrize(
        "d, k, deep",
        [
            (1125, 11, True),  # 3^2 * 5^3
            (1125, 14, True),
            (4225, 14, True),  # 5^2 * 13^2
            (4225, 1, True),
            (1009, 105, False),  # a prime
            (65, 1, False),  # k = 1: mirror partners can be adjacent
            (22270, 2002, False),
        ],
    )
    def test_skipped_pairs_fail_the_screen(self, d, k, deep):
        classes, image_of = key_classes(d, k)
        blocks = _sign_groups(d, k, classes, image_of)
        sign = {}
        for key, (lows, highs, ends) in blocks:
            assert len(highs) <= len(lows) == len(ends)
            for low, high in zip(lows, highs):
                assert image_of[low[3]] == high[3]
            # the lows of the pairs on one ray from (0, 0) form one run,
            # lows[r:ends[r]]; a class that the reflection fixes is a run
            pairs = lows[: len(highs)]
            for r, (x, y, _, _) in enumerate(pairs):
                assert r < ends[r] <= len(pairs)
                for s, (xq, yq, _, _) in enumerate(pairs):
                    assert (x * yq == xq * y) == (r <= s < ends[r] or s <= r < ends[s])
            assert ends[len(pairs) :] == list(range(len(pairs) + 1, len(lows) + 1))
            for entry in lows:
                sign[entry[3]] = key
            for entry in highs:
                sign[entry[3]] = image_key(key)
            for x, y, ky, i in lows + highs:
                assert (x, y, ky) == (classes[i][2], classes[i][3], k * classes[i][3] ** 2)
        assert sorted(sign) == list(range(len(classes)))
        # whether some class has 1 <= v < e at an odd prime p^e || d
        odd = [(p, e) for p, e in factorize(d).items() if p > 2]
        assert deep == any(
            1 <= multiplicity(math.gcd(x, s), p) < e for _, _, x, s in classes for p, e in odd
        )

        skipped = 0
        wild_skipped = False
        for c, q in combinations_with_replacement(range(len(classes)), 2):
            flips = screen_flips(sign[c], sign[q])
            for flip in (0, 1):
                # the upper vertex of c and the upper (flip 0) or lower
                # (flip 1) vertex of q, whose sign is the opposite
                if flip in flips:
                    continue
                skipped += 1
                (_, _, x, y), (_, _, xq, yq) = classes[c], classes[q]
                n2 = (x - xq) ** 2 + k * (y + yq if flip else y - yq) ** 2
                assert n2 % (4 * d * d), (c, q, flip)
                wild_skipped |= any(
                    multiplicity(math.gcd(u, s), p) >= e
                    for u, s in ((x, y), (xq, yq))
                    for p, e in odd
                )
        assert skipped

        tested = self.TESTED.get((d, k))
        if tested is not None:
            assert wild_skipped
            # the pairs _adjacency tests, from the group and run sizes: a low
            # tests its own group's lows after its run with equal signs and
            # from its place on with opposite signs (where no prime
            # constrains, its mirror partner included), its highs from its
            # place on, and every block of each later group
            count = 0
            for gi, (key, (lows, highs, ends)) in enumerate(blocks):
                later = sum(
                    len(lows2) * len(screen_flips(key, key2))
                    + len(highs2) * len(screen_flips(key, image_key(key2)))
                    for key2, (lows2, highs2, _) in blocks[gi + 1 :]
                )
                own = screen_flips(key, key)
                for r in range(len(lows)):
                    count += (len(lows) - ends[r]) * (0 in own) + (len(lows) - r) * (1 in own)
                    count += len(highs[r:]) * len(screen_flips(key, image_key(key))) + later
            assert count == tested

    @pytest.mark.parametrize(
        "d, k", [(45, 11), (75, 11), (75, 1), (65, 1), (107, 15), (113, 15)]
    )
    def test_edges_and_cliques_match_brute_force(self, d, k):
        classes, image_of = key_classes(d, k)
        expected, rejected = all_pairs_adjacency(d, k)
        assert len(expected) == 2 * len(classes)
        # each of the edge build's three base tests must drop some edge here
        assert all(rejected), rejected
        adj, _ = _adjacency(d, k, classes, image_of)
        assert adj == expected
        assert_matches_brute_force(d, k)

    def test_rays_lose_no_edge(self):
        # d = 17, k = 35: nine classes, four of them lows on one ray from
        # (0, 0); two points on one ray lie an integral |a - a'| apart, so
        # every pair of a run passes the screen and the root, and only the
        # line test through (0, 0) drops it
        d, k = 17, 35
        classes, image_of = key_classes(d, k)
        blocks = _sign_groups(d, k, classes, image_of)
        assert max(ends[r] - r for _, (_, highs, ends) in blocks for r in range(len(highs))) == 4
        adj, _ = _adjacency(d, k, classes, image_of)
        expected, rejected = all_pairs_adjacency(d, k)
        assert rejected[0] and any(expected)
        assert adj == expected

    def test_runs_skip_pairs_on_a_line_through_the_origin(self):
        # d = 1009, a prime, and the key of the most classes under the
        # primorial bound: a pair that a run skips lies on one line through
        # (0, 0) with equal signs of y, at the integral distance |a - a'|,
        # and its bisector image on one through (d, 0), so a base test
        # drops both: 379 of the 961 orbits that a build without runs forms
        d, k = 1009, 105
        groups = _candidate_groups(d, CharFilter.divisor_of(6469693230), 7)
        assert max(groups, key=lambda key: len(groups[key])) == k
        classes, image_of = key_classes(d, k)
        assert classes == groups[k]
        x2 = 2 * d * d
        skipped = 0
        for _, (lows, highs, ends) in _sign_groups(d, k, classes, image_of):
            for r, ((x, y, _, i), (hx, hy, _, _)) in enumerate(zip(lows, highs)):
                for (xq, yq, _, iq), (hxq, hyq, _, _) in zip(lows[r + 1 : ends[r]], highs[r + 1 :]):
                    assert x * yq == xq * y
                    assert (x2 - hx) * hyq == (x2 - hxq) * hy
                    t = classes[i][0] - classes[iq][0]
                    assert (x - xq) ** 2 + k * (y - yq) ** 2 == (2 * d * t) ** 2
                    skipped += 1
        _, pairs = _adjacency(d, k, classes, image_of)
        assert (skipped, pairs) == (379, 582)

    @pytest.mark.parametrize("d, k", [(22270, 2002), (66810, 2002)])
    def test_pairs_tested(self, d, k):
        # the squared distances _adjacency forms, one per reflection orbit
        # of (class pair, sign relation) that its sign blocks keep
        _, pairs = _adjacency(d, k, *key_classes(d, k))
        assert pairs == self.TESTED[d, k]


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

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_force(self, n):
        # at n = 3 one candidate is a set; at n = 4 a set needs an edge
        ours = {m.rows for m in search(SearchConfig(n, 1, 30))}
        brute = brute_force_point_sets(n, 30)
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
        for d in (10, 17, 25, 40):
            lookup = _candidate_groups(d, CharFilter.divisor_of(30))
            full = _candidate_groups(d, CharFilter.any_char())
            assert lookup == {k: v for k, v in full.items() if 30 % k == 0}, d

    def test_sharding_partitions_results(self):
        cfg = SearchConfig(4, 1, 20)
        full = {m.rows for m in search(cfg)}
        pieces = []
        for i in range(4):
            pieces.append({m.rows for m in search(replace(cfg, shard=(i, 4)))})
        merged = set().union(*pieces)
        assert merged == full
        assert sum(len(p) for p in pieces) == len(merged)  # disjoint keys

    def test_checkpoint_resume(self, tmp_path):
        ck = tmp_path / "ck.txt"
        cfg = SearchConfig(4, 1, 15)
        first = list(search(cfg, checkpoint=str(ck)))
        assert ck.exists()
        header, *lines = ck.read_text().splitlines()
        assert header == "# intpoints checkpoint n=4 general_position=on"
        keys = {tuple(map(int, line.split())) for line in lines}
        assert all(d <= 15 for d, _ in keys)
        # every key done: nothing re-emitted
        assert list(search(cfg, checkpoint=str(ck))) == []
        # a fresh run still reproduces the original results
        assert {m.rows for m in search(cfg)} == {m.rows for m in first}

    def test_checkpoint_bound_to_general_position(self, tmp_path):
        # the header a search that did not require general position wrote;
        # its key (5, 1) holds the 3-4-5 rectangle, no general-position set
        ck = tmp_path / "ck.txt"
        ck.write_text("# intpoints checkpoint n=4 general_position=off\n5 1\n")
        with pytest.raises(CheckpointError, match="general_position=off.*general_position=on"):
            list(search(SearchConfig(4, 5, 5), checkpoint=str(ck)))
        assert ck.read_text() == "# intpoints checkpoint n=4 general_position=off\n5 1\n"

    def test_checkpoint_torn_header_written_again(self, tmp_path):
        ck = tmp_path / "ck.txt"
        ck.write_text("# intpoints checkpoint n=4 gen")
        assert len(list(search(SearchConfig(4, 1, 8), checkpoint=str(ck)))) == 1
        header, *lines = ck.read_text().splitlines()
        assert header == "# intpoints checkpoint n=4 general_position=on"
        assert lines and all(len(line.split()) == 2 for line in lines)

    def test_checkpoint_opened_once(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck.txt"
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(search_module, "open", counting_open, raising=False)
        list(search(SearchConfig(4, 1, 15), checkpoint=str(ck)))
        assert opened == [str(ck)]
        assert len(ck.read_text().splitlines()) > 2

    def test_rectangle_needs_general_position_off(self):
        # the 3-4-5 rectangle: four concyclic points with integral distances,
        # the upper vertex of class (3, 4) and the lower one of (4, 3) at
        # distance 5; the base-circle test drops that edge, the only one
        classes, image_of = key_classes(5, 1)
        assert [c[:2] for c in classes] == [(3, 4), (4, 3)]
        (_, _, x, s), (_, _, xq, sq) = classes
        assert scaled_square(1, (x, s), (xq, -sq)) == (2 * 5 * 5) ** 2
        assert _adjacency(5, 1, classes, image_of)[0] == [0, 0, 0, 0]
        assert list(search(SearchConfig(4, 5, 5))) == []

    def test_trapezoid_of_two_mirror_pairs_rejected(self):
        # two mirror pairs span an isosceles trapezoid: four concyclic points,
        # none of them a base point, which only the clique search can test;
        # the edge build joins all four
        d = 528
        classes, image_of = key_classes(d, 1)
        adj, _ = _adjacency(d, 1, classes, image_of)
        position = {c[:2]: i for i, c in enumerate(classes)}
        trapezoid = [2 * position[ab] + side for ab in ((424, 280), (289, 305)) for side in (0, 1)]
        for v, w in combinations(trapezoid, 2):
            assert adj[v] >> w & 1, (v, w)
        assert list(search(SearchConfig(6, d, d, CharFilter.fixed(1)))) == []


class TestMinimumDiameter:
    def test_triangle(self):
        assert minimum_diameter(3, 10) == 1

    def test_quadrilateral(self):
        assert minimum_diameter(4, 20) == 8

    def test_absent(self):
        assert minimum_diameter(7, 12) is None
        assert minimum_diameter(4, 0) is None

    def test_filtered(self):
        assert minimum_diameter(4, 60, CharFilter.fixed(15)) == 22
        assert minimum_diameter(5, 100, CharFilter.divisor_of(6469693230)) == 73

    def test_six_point_cluster(self):
        # the catalog's least diameter of a 6-point set with integral
        # coordinates; k = 1 is a square, so mirror partners can be adjacent
        assert minimum_diameter(6, 1886, CharFilter.fixed(1)) == 1886


@pytest.mark.slow
class TestSecondDiameterSlow:
    def test_three_heptagons_known(self, heptagon1, heptagon2):
        """At diameter 66810 = 3 * 22270 with characteristic 2002 there are
        exactly two sets in general position: the shipped second certificate
        and the first one scaled by 3, no further heptagon."""
        out = list(search(SearchConfig(7, 66810, 66810, CharFilter.fixed(2002))))
        assert len(out) == 2
        assert heptagon2 in out
        extra = next(m for m in out if m != heptagon2)
        assert extra.rows[0] == (0, 66810, 66294, 49911, 27744, 26724, 25908)
        scaled = DistanceMatrix([[3 * x for x in row] for row in heptagon1.rows])
        assert extra == canonical_form(scaled)[0]
        assert verify(extra).passed

    def test_primorial_restricted_search_at_22270(self, heptagon1):
        """The characteristic-restricted mode (divisors of the primorial
        bound) re-derives the first certificate at its diameter."""
        cfg = SearchConfig(7, 22270, 22270, CharFilter.divisor_of(6469693230))
        assert list(search(cfg)) == [heptagon1]


class TestNoCyclicGarbage:
    def test_search_and_records_leave_no_cycles(self, heptagon1, heptagon2):
        # A reference cycle (a recursive closure, a generator that refers
        # to itself) outlives its frame until the cyclic collector runs, and
        # that collection is charged to whatever allocates next.
        gc.disable()
        try:
            gc.collect()
            records = list(search(SearchConfig(4, 300, 300)))
            assert records
            assert gc.collect() == 0, "finished search"
            stream = search(SearchConfig(4, 300, 300))
            next(stream)
            stream.close()
            del stream
            assert gc.collect() == 0, "abandoned search"
            for m in (heptagon1, heptagon2):
                canonical_form(m)
                assert gc.collect() == 0, "canonical_form"
                assert verify(m).passed
                assert gc.collect() == 0, "verify"
                embed(m)
                assert gc.collect() == 0, "embed"
            for m in records:
                _record(m)
            assert gc.collect() == 0, "cli._record"
            assert mod_max_general_position(13).exact
            assert gc.collect() == 0, "mod_max_general_position"
        finally:
            gc.enable()
