import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intpoints.modplane import (
    ModContext,
    ModSearchResult,
    mod_integral_distance,
    mod_is_collinear,
    mod_max_general_position,
    mod_on_circle,
    pair_orbit,
    point_stabilizer,
    stabilizer,
)

from .oracles import brute_force_mod_max, literal_pruned_mod_max


# (modulus, node budget, size, exact, nodes, witness).  The search order
# fixes every witness and node count, so a change of order shows here.
PINNED = [
    (2, None, 4, True, 4, ((0, 0), (0, 1), (1, 0), (1, 1))),
    (3, None, 2, True, 2, ((0, 0), (0, 1))),
    (4, None, 4, True, 4, ((0, 0), (0, 1), (2, 0), (2, 1))),
    (5, None, 4, True, 6, ((0, 0), (0, 1), (1, 3), (4, 3))),
    (6, None, 4, True, 11, ((0, 0), (0, 1), (3, 0), (3, 1))),
    (7, None, 3, True, 4, ((0, 0), (0, 1), (1, 0))),
    (8, None, 4, True, 35, ((0, 0), (0, 1), (4, 0), (4, 1))),
    (9, None, 5, True, 33, ((0, 0), (0, 1), (3, 0), (3, 4), (6, 3))),
    (10, None, 6, True, 124, ((0, 0), (0, 1), (1, 3), (1, 8), (2, 0), (2, 1))),
    (11, None, 4, True, 10, ((0, 0), (0, 1), (1, 6), (3, 6))),
    (12, None, 4, True, 37, ((0, 0), (0, 1), (6, 0), (6, 1))),
    (13, None, 6, True, 58, ((0, 0), (0, 1), (1, 4), (1, 5), (6, 5), (8, 0))),
    (14, None, 6, True, 83, ((0, 0), (0, 1), (1, 7), (6, 7), (7, 0), (7, 13))),
    (15, None, 4, True, 22, ((0, 0), (0, 1), (3, 0), (3, 11))),
    # past the benchmark's moduli; m = 18 takes about 2 s
    (16, None, 6, True, 1701, ((0, 0), (0, 1), (4, 0), (4, 1), (8, 4), (8, 5))),
    (17, None, 6, True, 323, ((0, 0), (0, 1), (1, 0), (1, 13), (6, 8), (13, 14))),
    (18, None, 10, True, 47053,
     ((0, 0), (0, 1), (3, 0), (3, 5), (6, 1), (6, 6), (9, 5), (9, 6), (12, 7), (15, 11))),
    (19, None, 5, True, 150, ((0, 0), (0, 1), (1, 5), (6, 12), (14, 10))),
    (20, None, 6, True, 1440, ((0, 0), (0, 1), (2, 0), (2, 1), (10, 10), (10, 11))),
    (21, None, 4, True, 11, ((0, 0), (0, 1), (3, 4), (18, 11))),
    (22, None, 8, True, 997, ((0, 0), (0, 1), (1, 6), (1, 17), (2, 0), (2, 1), (10, 6), (14, 17))),
    (23, None, 5, True, 577, ((0, 0), (0, 1), (1, 0), (1, 10), (3, 20))),
    (24, None, 6, True, 306, ((0, 0), (0, 2), (6, 0), (6, 4), (12, 10), (12, 20))),
    (28, None, 6, True, 813, ((0, 0), (0, 1), (4, 4), (10, 4), (14, 1), (14, 18))),
    (29, None, 8, True, 12867,
     ((0, 0), (0, 1), (1, 9), (1, 12), (10, 26), (14, 20), (22, 26), (23, 9))),
    (30, None, 6, True, 4040, ((0, 0), (0, 1), (3, 0), (12, 5), (15, 4), (15, 5))),
    (31, None, 6, True, 6090, ((0, 0), (0, 1), (1, 0), (1, 2), (4, 3), (10, 1))),
    (33, None, 4, True, 87, ((0, 0), (0, 1), (3, 5), (3, 6))),
    (35, None, 5, True, 354, ((0, 0), (0, 1), (1, 8), (4, 18), (15, 28))),
    (11, 5, 4, False, 6, ((0, 0), (0, 1), (1, 6), (3, 6))),
    (13, 0, 1, False, 1, ((0, 0),)),
    (13, 1, 1, False, 2, ((0, 0),)),
    (13, 50, 6, False, 51, ((0, 0), (0, 1), (1, 4), (1, 5), (6, 5), (8, 0))),
    (14, 100, 6, True, 83, ((0, 0), (0, 1), (1, 7), (6, 7), (7, 0), (7, 13))),
    (50, 2000, 10, False, 2001,
     ((0, 0), (0, 1), (2, 11), (3, 21), (5, 6), (5, 11), (8, 31), (10, 6), (20, 16), (25, 16))),
]


def stabilizer_generators(n):
    """The swap, the negation of x, the unit scalings and the rotations of
    determinant 1, as integer 2x2 matrices acting mod n."""
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    rotations = [((a, -b), (b, a)) for a in range(n) for b in range(n) if (a * a + b * b) % n == 1]
    return [((0, 1), (1, 0)), ((-1, 0), (0, 1))] + [((u, 0), (0, u)) for u in units] + rotations


def group_elements(n):
    """Every element w*R*N^s of the stabilizer of (0, 0): a unit scaling w,
    a rotation R of determinant 1 and s in {0, 1} negations of x."""
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    rotations = [(a, b) for a in range(n) for b in range(n) if (a * a + b * b) % n == 1]
    return {
        ((w * s * a % n, -w * b % n), (w * s * b % n, w * a % n))
        for w in units
        for a, b in rotations
        for s in (1, -1)
    }


def compose(g, h, n):
    (a, b), (c, d) = g
    (e, f), (k, l) = h
    return (((a * e + b * k) % n, (a * f + b * l) % n), ((c * e + d * k) % n, (c * f + d * l) % n))


def act(g, p, n):
    (a, b), (c, d) = g
    return ((a * p[0] + b * p[1]) % n, (c * p[0] + d * p[1]) % n)


def swap_act(g, c, p, n):
    """The map p -> c - g*p of the set stabilizer of {(0, 0), c}."""
    u, v = act(g, p, n)
    return ((c[0] - u) % n, (c[1] - v) % n)


def predicate_checks(pts, moved, ctx):
    """Each predicate on four sampled points and on their images."""
    return [
        ("distance", mod_integral_distance(pts[0], pts[1], ctx),
         mod_integral_distance(moved[0], moved[1], ctx)),
        ("line", mod_is_collinear(pts[:3], ctx), mod_is_collinear(moved[:3], ctx)),
        ("circle", mod_on_circle(*pts, ctx), mod_on_circle(*moved, ctx)),
    ]


class TestModContext:
    def test_squares_contain_zero_and_one(self):
        for n in range(2, 20):
            ctx = ModContext(n)
            assert 0 in ctx.squares and 1 in ctx.squares

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            ModContext(1)


class TestIntegralDistance:
    def test_three_four_five(self):
        ctx = ModContext(5)
        assert mod_integral_distance((0, 0), (3, 4), ctx)

    def test_non_square_residue(self):
        ctx = ModContext(4)
        assert not mod_integral_distance((0, 0), (1, 1), ctx)

    def test_self_distance(self):
        for n in (2, 5, 9):
            ctx = ModContext(n)
            assert mod_integral_distance((3, 1), (3, 1), ctx)

    @given(
        n=st.integers(min_value=2, max_value=15),
        data=st.tuples(*[st.integers(min_value=0, max_value=40)] * 6),
    )
    @settings(max_examples=200)
    def test_symmetric_and_translation_invariant(self, n, data):
        ctx = ModContext(n)
        u1, v1, u2, v2, s, t = data
        p, q = (u1, v1), (u2, v2)
        r = mod_integral_distance(p, q, ctx)
        assert r == mod_integral_distance(q, p, ctx)
        shifted = ((u1 + s, v1 + t), (u2 + s, v2 + t))
        assert r == mod_integral_distance(*shifted, ctx)


class TestCollinear:
    def test_diagonal(self):
        ctx = ModContext(5)
        assert mod_is_collinear([(0, 0), (1, 1), (2, 2)], ctx)

    def test_bent_triple(self):
        ctx = ModContext(5)
        assert not mod_is_collinear([(0, 0), (1, 0), (0, 1)], ctx)

    def test_any_two_points(self):
        ctx = ModContext(7)
        rng = random.Random(1)
        for _ in range(30):
            pts = [(rng.randrange(7), rng.randrange(7)) for _ in range(2)]
            assert mod_is_collinear(pts, ctx)

    def test_composite_modulus_small_direction(self):
        # direction (2, 2) mod 4 only reaches two points
        ctx = ModContext(4)
        assert mod_is_collinear([(0, 0), (2, 2)], ctx)
        assert mod_is_collinear([(0, 0), (2, 2), (0, 0)], ctx)

    @given(
        n=st.integers(min_value=2, max_value=9),
        pts=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=4
        ),
        shift=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    )
    @settings(max_examples=150, deadline=None)
    def test_translation_invariant(self, n, pts, shift):
        ctx = ModContext(n)
        base = mod_is_collinear(pts, ctx)
        moved = [(u + shift[0], v + shift[1]) for u, v in pts]
        assert mod_is_collinear(moved, ctx) == base

    def test_agrees_with_line_masks(self):
        # the search's point masks: r - c is in U(c - p), that is r is in
        # U(c - p) translated by c, exactly when p, c, r are collinear
        rng = random.Random(50)
        for n in (4, 5, 6, 8, 9):
            ctx = ModContext(n)
            masks = ctx.line_masks()
            for _ in range(120):
                pts = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
                if len(set(pts)) != 3:
                    continue
                (u1, v1), (u2, v2), (u3, v3) = pts
                through = ctx.translate(masks[(u2 - u1) % n * n + (v2 - v1) % n], u2 * n + v2)
                fast = bool(through >> u3 * n + v3 & 1)
                assert fast == mod_is_collinear(pts, ctx), (n, pts)


class TestOnCircle:
    def test_unit_circle_mod5(self):
        ctx = ModContext(5)
        assert mod_on_circle((1, 0), (0, 1), (4, 0), (0, 4), ctx)

    def test_repeated_point_by_exhaustion(self):
        for n in (2, 3, 4, 5, 7):
            ctx = ModContext(n)
            for p in [(0, 0), (1, 0), (1, 1)]:
                expected = any(
                    ((p[0] - a) ** 2 + (p[1] - b) ** 2) % n in ctx.radius_squares
                    for a in range(n)
                    for b in range(n)
                )
                assert mod_on_circle(p, p, p, p, ctx) == expected

    def test_line_plus_point_mod3(self):
        ctx = ModContext(3)
        quad = [(0, 0), (1, 0), (2, 0), (0, 1)]
        expected = False
        for a in range(3):
            for b in range(3):
                vals = {((x - a) ** 2 + (y - b) ** 2) % 3 for x, y in quad}
                if len(vals) == 1 and vals.pop() in ctx.radius_squares:
                    expected = True
        assert mod_on_circle(*quad, ctx) == expected

    def test_circles_through_are_the_scanned_circles(self):
        # C[v] translated by p against a scan of every centre: the centres
        # of the radius-v circles through p
        for n in range(2, 13):
            ctx = ModContext(n)
            masks = ctx.circle_masks()
            for v in range(n):
                assert (masks[v] != 0) == (v in ctx.radius_squares), (n, v)
            for x in range(n):
                for y in range(n):
                    for v in range(n):
                        scanned = sum(
                            1 << a * n + b
                            for a in range(n)
                            for b in range(n)
                            if v in ctx.radius_squares and ((x - a) ** 2 + (y - b) ** 2) % n == v
                        )
                        assert ctx.translate(masks[v], x * n + y) == scanned, (n, x, y, v)

    def test_agrees_with_circle_masks(self):
        # the search's point masks: r is on a circle through p, q and c
        # exactly when some v has a centre in the three translates of C[v]
        # whose circle, C[v] translated to it, holds r
        rng = random.Random(51)
        seen = set()
        for n in (4, 5, 6, 8, 9):
            ctx = ModContext(n)
            masks = ctx.circle_masks()
            for _ in range(120):
                pts = [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
                if len(set(pts)) != 4:
                    continue
                p, q, c, r = [u * n + v for u, v in pts]
                fast = any(
                    ctx.translate(base, centre) >> r & 1
                    for base in masks
                    for centre in range(n * n)
                    if (ctx.translate(base, p) & ctx.translate(base, q) & ctx.translate(base, c))
                    >> centre & 1
                )
                assert fast == mod_on_circle(*pts, ctx), (n, pts)
                seen.add(fast)
        assert seen == {False, True}

    @given(
        n=st.integers(min_value=2, max_value=8),
        quad=st.tuples(*[st.tuples(st.integers(0, 7), st.integers(0, 7))] * 4),
        shift=st.tuples(st.integers(0, 7), st.integers(0, 7)),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_invariant(self, n, quad, shift):
        ctx = ModContext(n)
        base = mod_on_circle(*quad, ctx)
        moved = [(u + shift[0], v + shift[1]) for u, v in quad]
        assert mod_on_circle(*moved, ctx) == base


class TestOriginSymmetry:
    def test_generators_fix_the_origin(self):
        for n in range(2, 16):
            for g in stabilizer_generators(n):
                assert act(g, (0, 0), n) == (0, 0), (n, g)

    def test_generators_preserve_the_predicates(self):
        rng = random.Random(16)
        seen = set()
        for n in range(2, 16):
            ctx = ModContext(n)
            for g in stabilizer_generators(n):
                for _ in range(2):
                    pts = [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
                    moved = [act(g, p, n) for p in pts]
                    for name, before, after in predicate_checks(pts, moved, ctx):
                        assert before == after, (n, g, name, pts)
                        seen.add((name, before))
        # both outcomes of every predicate were sampled
        assert len(seen) == 6

    def test_orbits_are_the_generator_closures(self):
        for n in range(2, 16):
            orbits = [pair_orbit(stabilizer(n), n, 0, p) for p in range(n * n)]
            gens = stabilizer_generators(n)
            assert len(orbits) == n * n
            covered = 0
            for leader in range(n * n):
                if covered >> leader & 1:
                    continue
                closure, todo = {leader}, [leader]
                while todo:
                    p = divmod(todo.pop(), n)
                    for g in gens:
                        u, v = act(g, p, n)
                        if u * n + v not in closure:
                            closure.add(u * n + v)
                            todo.append(u * n + v)
                # orbits met in index order: each starts at its least index
                assert min(closure) == leader
                mask = sum(1 << i for i in closure)
                assert all(orbits[i] == mask for i in closure), (n, leader)
                assert not covered & mask
                covered |= mask
            assert covered == (1 << n * n) - 1

    def test_products_are_the_generated_group(self):
        for n in range(2, 16):
            gens = [tuple(tuple(x % n for x in row) for row in g) for g in stabilizer_generators(n)]
            group, todo = set(gens), list(gens)
            while todo:
                g = todo.pop()
                for h in gens:
                    gh = compose(g, h, n)
                    if gh not in group:
                        group.add(gh)
                        todo.append(gh)
            assert group == group_elements(n), n
            # the search's own list: the same group, each element once
            elements = [((g11, g12), (g21, g22)) for g11, g12, g21, g22 in stabilizer(n)]
            assert len(elements) == len(group) and set(elements) == group, n

    def test_negation_is_in_the_stabilizer(self):
        # so the second point's orbits are the pair orbits about (0, 0):
        # x -> -g*x is in the stabilizer for each g in it
        for n in range(2, 31):
            assert (n - 1, 0, 0, n - 1) in stabilizer(n), n

    def test_pair_orbits_are_the_closures(self):
        # the third level's masks: orbits under the elements fixing c and
        # the maps x -> c - g*x, closed here from the test's own group
        for n in range(2, 16):
            elements, searched_group = group_elements(n), stabilizer(n)
            for q in range(n * n):
                c = divmod(q, n)
                fixing = [g for g in elements if act(g, c, n) == c]
                searched = point_stabilizer(searched_group, n, q)
                covered = 0
                for leader in range(n * n):
                    if covered >> leader & 1:
                        continue
                    closure, todo = {leader}, [leader]
                    while todo:
                        p = divmod(todo.pop(), n)
                        for g in fixing:
                            for u, v in (act(g, p, n), swap_act(g, c, p, n)):
                                if u * n + v not in closure:
                                    closure.add(u * n + v)
                                    todo.append(u * n + v)
                    mask = sum(1 << i for i in closure)
                    assert all(pair_orbit(searched, n, q, i) == mask for i in closure), (n, q, leader)
                    covered |= mask
                assert covered == (1 << n * n) - 1

    def test_point_stabilizers_fix_and_preserve(self):
        rng = random.Random(17)
        seen = set()
        for n in range(2, 16):
            ctx = ModContext(n)
            elements = group_elements(n)
            for q in [divmod(rng.randrange(n * n), n) for _ in range(2)]:
                for g in elements:
                    if act(g, q, n) != q:
                        continue
                    assert act(g, (0, 0), n) == (0, 0), (n, g)
                    pts = [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
                    moved = [act(g, p, n) for p in pts]
                    for name, before, after in predicate_checks(pts, moved, ctx):
                        assert before == after, (n, q, g, name, pts)
                        seen.add((name, before))
        assert len(seen) == 6

    def test_pair_swaps_exchange_and_preserve(self):
        # x -> c - g*x for g fixing c swaps (0, 0) and c and keeps the
        # three predicates
        rng = random.Random(18)
        seen = set()
        for n in range(2, 16):
            ctx = ModContext(n)
            elements = group_elements(n)
            for c in [divmod(rng.randrange(n * n), n) for _ in range(2)]:
                for g in elements:
                    if act(g, c, n) != c:
                        continue
                    assert swap_act(g, c, (0, 0), n) == c and swap_act(g, c, c, n) == (0, 0), (n, c, g)
                    pts = [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
                    moved = [swap_act(g, c, p, n) for p in pts]
                    for name, before, after in predicate_checks(pts, moved, ctx):
                        assert before == after, (n, c, g, name, pts)
                        seen.add((name, before))
        assert len(seen) == 6


class TestMaxGeneralPosition:
    def test_matches_brute_force_small(self):
        for n in range(2, 9):
            result = mod_max_general_position(n)
            expected_size, _ = brute_force_mod_max(n)
            assert result.exact
            assert result.size == expected_size, n

    # the moduli where the third level's swaps drop the most nodes
    @pytest.mark.parametrize("n", [9, 10, 12, pytest.param(14, marks=pytest.mark.slow), 15])
    def test_matches_brute_force_composite(self, n):
        result = mod_max_general_position(n)
        assert result.exact
        assert result.size == brute_force_mod_max(n)[0]

    def test_matches_brute_force_prime_11(self):
        result = mod_max_general_position(11)
        assert result.exact
        assert result.size == brute_force_mod_max(11)[0]

    def test_matches_literal_pruned_oracle(self):
        # the same search with the masks replaced by the literal predicates:
        # equal node counts mean every child is the same set
        for n in range(2, 16):
            result = mod_max_general_position(n)
            assert (result.size, result.witness, result.nodes) == literal_pruned_mod_max(n), n

    def test_rooted_oracle_matches_unrooted(self):
        # the oracle fixes its first point at (0, 0), by translation
        for n in range(2, 12):
            assert brute_force_mod_max(n)[0] == brute_force_mod_max(n, rooted=False)[0], n

    @pytest.mark.slow
    def test_matches_brute_force_prime_13(self):
        result = mod_max_general_position(13)
        assert result.exact
        assert result.size == brute_force_mod_max(13)[0]

    def test_witness_is_valid(self):
        for n in range(2, 16):
            ctx = ModContext(n)
            res = mod_max_general_position(n)
            wit = res.witness
            assert len(wit) == res.size
            for p, q in combinations(wit, 2):
                assert mod_integral_distance(p, q, ctx)
            for tri in combinations(wit, 3):
                assert not mod_is_collinear(list(tri), ctx)
            for quad in combinations(wit, 4):
                assert not mod_on_circle(*quad, ctx)

    def test_budget_gives_lower_bound(self):
        full = mod_max_general_position(11)
        capped = mod_max_general_position(11, node_budget=5)
        assert not capped.exact
        assert capped.size <= full.size

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            mod_max_general_position(5, node_budget=-3)

    @pytest.mark.parametrize(
        "n, budget, size, exact, nodes, witness",
        PINNED,
        ids=[f"m{n}-budget{budget}" for n, budget, *_ in PINNED],
    )
    def test_pinned_results(self, n, budget, size, exact, nodes, witness):
        result = mod_max_general_position(n, node_budget=budget)
        assert result == ModSearchResult(size, witness, exact, nodes)

    def test_deterministic(self):
        assert mod_max_general_position(9) == mod_max_general_position(9)
