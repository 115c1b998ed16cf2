import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intpoints.arith import (
    factorize,
    integer_sqrt,
    is_probable_prime,
    merge_squarefree,
    rational_perfect_square,
    squarefree_decompose,
    squarefree_part,
)


class TestIntegerSqrt:
    def test_perfect_square(self):
        assert integer_sqrt(25) == (5, True)

    def test_non_square(self):
        assert integer_sqrt(26) == (5, False)

    def test_large_perfect_square(self):
        assert integer_sqrt(495952900) == (22270, True)

    def test_zero_and_one(self):
        assert integer_sqrt(0) == (0, True)
        assert integer_sqrt(1) == (1, True)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integer_sqrt(-1)

    @given(st.integers(min_value=0, max_value=10**30))
    def test_floor_property(self, n):
        r, exact = integer_sqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)
        assert exact == (r * r == n)


class TestSquarefreePart:
    def test_one(self):
        assert squarefree_part(1) == 1

    def test_perfect_square(self):
        assert squarefree_part(576) == 1

    def test_already_squarefree(self):
        # 2002 = 2 * 7 * 11 * 13
        assert squarefree_part(2002) == 2002

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(0)
        with pytest.raises(ValueError):
            squarefree_part(-4)

    def test_decompose_roundtrip(self):
        for n in (1, 2, 12, 360, 2002, 6469693230, 495952900):
            m, s = squarefree_decompose(n)
            assert m * s * s == n
            assert squarefree_part(m) == m

    def test_large_semiprime_cofactor(self):
        # forces the Pollard rho path: two primes above the trial bound
        p, q = 1_000_003, 1_000_033
        assert squarefree_part(p * q) == p * q
        assert squarefree_part(p * p * q) == q

    def test_square_invariance_randomized(self):
        rng = random.Random(20270)
        for _ in range(10_000):
            n = rng.randint(1, 10**6)
            t = rng.randint(1, 10**3)
            assert squarefree_part(n * t * t) == squarefree_part(n)

    def test_no_square_divisor_by_trial_division(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 10**6)
            m = squarefree_part(n)
            assert n % m == 0
            r, exact = integer_sqrt(n // m)
            assert exact
            for d in range(2, 1000):
                if d * d > m:
                    break
                assert m % (d * d) != 0

    def test_merge_squarefree(self):
        # 12 = 3*2^2, 18 = 2*3^2 -> 216 = 6*6^2
        assert merge_squarefree(3, 2, 2, 3) == (6, 6)


class TestFactorize:
    def test_small(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}

    def test_one(self):
        assert factorize(1) == {}

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200)
    def test_product_reconstructs(self, n):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n


class TestRationalPerfectSquare:
    def test_square_fraction(self):
        assert rational_perfect_square(Fraction(144, 25)) == (Fraction(12, 5), True)

    def test_non_square(self):
        root, ok = rational_perfect_square(Fraction(2))
        assert not ok

    def test_integer_case(self):
        assert rational_perfect_square(Fraction(495952900)) == (Fraction(22270), True)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rational_perfect_square(Fraction(-1, 4))
