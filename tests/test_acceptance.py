"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 4 is a stretch goal and criterion 3's exhaustive
six-point confirmation an optional long job; both complete in seconds
here and therefore run by default.
"""

import random
import time
from fractions import Fraction

from intpoints.arith import squarefree_part
from intpoints.pointset import (
    DistanceMatrix,
    canonical_form,
    distances_from_embedding,
    embed,
    is_concyclic_or_collinear,
    pointset_characteristic,
    triangle_characteristic,
    verify,
)
from intpoints.search import (
    CharFilter,
    SearchConfig,
    enumerate_triangles,
    minimum_diameter,
    search,
)
from intpoints.modplane import mod_max_general_position
from intpoints.cli import main

from .conftest import HEPTAGON_1_COORDS
from .oracles import (
    brute_force_mod_max,
    brute_force_point_sets,
    cross_ratio_concyclic_or_collinear,
    naive_canonical,
)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_certificate_verification(capsys, heptagon1, heptagon2,
                                              heptagon1_file, heptagon2_file):
    t0 = time.perf_counter()
    r1 = verify(heptagon1)
    elapsed1 = time.perf_counter() - t0
    assert r1.passed
    assert r1.diameter == 22270
    assert r1.characteristic == 2002
    assert r1.canonical.passed
    assert r1.no_collinear_triple.passed and r1.no_concyclic_quadruple.passed
    assert elapsed1 < 1.0

    t0 = time.perf_counter()
    r2 = verify(heptagon2)
    elapsed2 = time.perf_counter() - t0
    assert r2.passed
    assert r2.diameter == 66810
    assert squarefree_part(r2.characteristic) == r2.characteristic
    assert 6469693230 % r2.characteristic == 0
    assert elapsed2 < 1.0

    # the CLI front end agrees, exit code 0
    assert main(["verify", str(heptagon1_file)]) == 0
    assert main(["verify", str(heptagon2_file)]) == 0
    capsys.readouterr()
    report("1 certificate verification",
           f"22270/2002 in {elapsed1 * 1000:.0f} ms, 66810/{r2.characteristic} in {elapsed2 * 1000:.0f} ms")


def test_criterion_2_embedding_regression(heptagon1):
    t0 = time.perf_counter()
    e = embed(heptagon1)
    elapsed = time.perf_counter() - t0
    assert e.k == 2002
    for i, (x, q) in enumerate(HEPTAGON_1_COORDS):
        assert e.points[i] == (Fraction(x), Fraction(q))
    assert e.points[3] == (Fraction(245363, 17), Fraction(3144, 17))
    assert e.points[6][1] == Fraction(-54168, 2227)
    assert elapsed < 1.0
    report("2 embedding regression", f"all 7 coordinates bit-exact in {elapsed * 1000:.0f} ms")


def test_criterion_3_minimum_diameters():
    budgets = {}
    for n, cap, expected in ((3, 10, 1), (4, 20, 8), (5, 100, 73)):
        t0 = time.perf_counter()
        assert minimum_diameter(n, cap) == expected
        budgets[n] = time.perf_counter() - t0
        assert budgets[n] < 300.0

    t0 = time.perf_counter()
    found = list(search(SearchConfig(6, 174, 174)))
    t_found = time.perf_counter() - t0
    assert found, "expected a six-point set at diameter 174"
    assert t_found < 1800.0

    # exhaustive confirmation below 174 (the optional long job) is cheap here
    t0 = time.perf_counter()
    assert minimum_diameter(6, 174) == 174
    t_exhaustive = time.perf_counter() - t0

    report(
        "3 minimum diameters",
        "1/8/73 in "
        + "/".join(f"{budgets[n] * 1000:.0f}ms" for n in (3, 4, 5))
        + f", n=6 found at 174 in {t_found:.1f}s, exhaustive scan {t_exhaustive:.1f}s",
    )


def test_criterion_4_heptagon_rediscovery(heptagon1):
    t0 = time.perf_counter()
    out = list(search(SearchConfig(7, 22270, 22270, CharFilter.fixed(2002))))
    elapsed = time.perf_counter() - t0
    assert out == [heptagon1]
    report("4 heptagon rediscovery (stretch)", f"re-derived from scratch in {elapsed:.1f}s")


def test_criterion_5a_canonical_oracle():
    rng = random.Random(501)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 5)
        max_d = rng.choice((3, 5, 40))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(1, max_d)
        m = DistanceMatrix(rows)
        assert canonical_form(m) == naive_canonical(m)
        checked += 1
    report("5a canonical form vs n! oracle", f"{checked} random matrices, exact agreement")


def test_criterion_5b_concyclic_oracle():
    rng = random.Random(502)
    checked = 0
    while checked < 1000:
        pts = [
            (Fraction(rng.randint(-15, 15), rng.randint(1, 5)),
             Fraction(rng.randint(-15, 15), rng.randint(1, 5)))
            for _ in range(4)
        ]
        if len(set(pts)) < 4:
            continue
        assert is_concyclic_or_collinear(*pts) == cross_ratio_concyclic_or_collinear(pts)
        checked += 1
    # include guaranteed-concyclic cases: four points of a random rational circle
    for _ in range(50):
        cx, cy = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        picks = rng.sample([(3, 4), (4, 3), (5, 0), (0, 5), (-3, 4), (-4, -3), (0, -5), (3, -4)], 4)
        pts = [(cx + dx, cy + dy) for dx, dy in picks]
        assert is_concyclic_or_collinear(*pts)
        assert cross_ratio_concyclic_or_collinear(pts)
    report("5b concyclicity vs cross-ratio oracle", f"{checked}+200 quadruples, exact agreement")


def test_criterion_5c_search_completeness():
    ours = {m.rows for m in search(SearchConfig(4, 1, 30))}
    brute = brute_force_point_sets(4, 30)
    assert ours == brute
    report("5c search vs brute force (n=4, d<=30)", f"{len(ours)} point sets on both routes")


def test_criterion_5d_modular_oracle():
    sizes = {}
    for n in range(2, 9):
        res = mod_max_general_position(n)
        expected, _ = brute_force_mod_max(n)
        assert res.exact and res.size == expected, n
        sizes[n] = res.size
    report("5d modular maxima vs subset brute force",
           "n=2..8 -> " + ",".join(str(sizes[n]) for n in range(2, 9)))


def test_criterion_6_invariant_suites():
    # uniform characteristic + verify + embedding round trip on all search
    # output for n = 4, 5 up to diameter 100
    corpus = []
    for n in (4, 5):
        corpus.extend(search(SearchConfig(n, 1, 100)))
    assert len(corpus) > 3000
    for m in corpus:
        k = pointset_characteristic(m)  # raises on any mismatch
        assert k >= 1
        assert distances_from_embedding(embed(m)) == m
    sample = random.Random(600).sample(corpus, 200)
    for m in sample:
        assert verify(m).passed

    # triangle characteristic invariances, 10^4 random triangles
    rng = random.Random(601)
    tri_checked = 0
    while tri_checked < 10_000:
        a, b = rng.randint(1, 400), rng.randint(1, 400)
        lo = abs(a - b) + 1
        if lo > a + b - 1:
            continue
        c = rng.randint(lo, a + b - 1)
        k = triangle_characteristic(a, b, c)
        lam = rng.randint(1, 12)
        assert triangle_characteristic(lam * a, lam * b, lam * c) == k
        sides = [a, b, c]
        rng.shuffle(sides)
        assert triangle_characteristic(*sides) == k
        tri_checked += 1

    # square-free part invariance under square factors, 10^4 random pairs
    for _ in range(10_000):
        n = rng.randint(1, 10**6)
        t = rng.randint(1, 10**3)
        assert squarefree_part(n * t * t) == squarefree_part(n)

    report(
        "6 invariant suites",
        f"{len(corpus)} search outputs round-tripped, {tri_checked} triangles, 10000 square-free pairs",
    )


def test_criterion_7_triangle_count_complexity():
    counts = {d: sum(1 for _ in enumerate_triangles(d)) for d in (50, 100, 200)}
    ratios = {d: counts[d] / d**3 for d in counts}
    c = (max(ratios.values()) * min(ratios.values())) ** 0.5
    for d in counts:
        assert c / 2 <= ratios[d] <= 2 * c
    report(
        "7 cubic triangle counts",
        "counts " + ", ".join(f"T({d})={counts[d]}" for d in (50, 100, 200))
        + f"; ratios to d^3 within {max(ratios.values()) / min(ratios.values()):.3f}x of each other",
    )
