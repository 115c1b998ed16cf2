import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intpoints.modplane import (
    ModContext,
    mod_integral_distance,
    mod_is_collinear,
    mod_max_general_position,
    mod_on_circle,
)

from .oracles import brute_force_mod_max


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
        # the search's subgroup-membership structure matches the literal test
        rng = random.Random(50)
        for n in (4, 5, 6, 8, 9):
            ctx = ModContext(n)
            masks = ctx.line_masks()
            for _ in range(120):
                pts = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
                if len(set(pts)) != 3:
                    continue
                (u1, v1), (u2, v2), (u3, v3) = pts
                d2 = ((u2 - u1) % n) * n + (v2 - v1) % n
                d3 = ((u3 - u1) % n) * n + (v3 - v1) % n
                fast = bool(masks[d2] & masks[d3])
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


class TestMaxGeneralPosition:
    def test_matches_brute_force_small(self):
        for n in range(2, 9):
            result = mod_max_general_position(n)
            expected_size, _ = brute_force_mod_max(n)
            assert result.exact
            assert result.size == expected_size, n

    def test_matches_brute_force_prime_11(self):
        result = mod_max_general_position(11)
        assert result.exact
        assert result.size == brute_force_mod_max(11)[0]

    @pytest.mark.slow
    def test_matches_brute_force_prime_13(self):
        result = mod_max_general_position(13)
        assert result.exact
        assert result.size == brute_force_mod_max(13)[0]

    def test_witness_is_valid(self):
        for n in (5, 8, 13):
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

    def test_deterministic(self):
        assert mod_max_general_position(9) == mod_max_general_position(9)
