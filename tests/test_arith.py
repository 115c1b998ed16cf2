import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import nextprime

from intpoints import arith
from intpoints.arith import FactorBoundExceeded, factorize, is_probable_prime, squarefree_part

from .oracles import sympy_factorize, sympy_is_prime, sympy_squarefree_part

# the least strong pseudoprimes to the prime bases up to 37 and up to 41
# (Sorenson and Webster), and the two prime factors of the first
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
PSI_12_FACTORS = (399165290221, 798330580441)


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
            m = squarefree_part(n)
            s = math.isqrt(n // m)
            assert m * s * s == n
            assert squarefree_part(m) == m

    def test_large_semiprime_cofactor(self):
        # forces the Pollard rho path: two primes above the trial bound
        p, q = 1_000_003, 1_000_033
        assert squarefree_part(p * q) == p * q
        assert squarefree_part(p * p * q) == q

    def test_strong_pseudoprime_cofactor(self):
        p, q = PSI_12_FACTORS
        assert p * q == PSI_12
        assert squarefree_part(p * p * q) == sympy_squarefree_part(p * p * q) == q

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
            r = math.isqrt(n // m)
            assert r * r == n // m
            for d in range(2, 1000):
                if d * d > m:
                    break
                assert m % (d * d) != 0

    def test_merge_squarefree(self):
        # the rule the Heron characteristic and the candidate index merge
        # square-free parts by: sqf(x*y) = p*q / gcd(p, q)^2
        # 12 = 3*2^2, 18 = 2*3^2 -> 216 = 6*6^2
        assert squarefree_part(12 * 18) == 6
        rng = random.Random(2002)
        for _ in range(2000):
            x, y = rng.randint(1, 10**5), rng.randint(1, 10**5)
            p, q = squarefree_part(x), squarefree_part(y)
            assert squarefree_part(x * y) == p * q // math.gcd(p, q) ** 2


class TestIsProbablePrime:
    @pytest.mark.parametrize("n", [PSI_12, PSI_13, *PSI_12_FACTORS, 41, 43, 41 * 43])
    def test_matches_sympy(self, n):
        assert is_probable_prime(n) == sympy_is_prime(n)


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

    def test_matches_sympy_small(self):
        for n in range(1, 20_001):
            assert factorize(n) == sympy_factorize(n), n

    def test_matches_sympy_seeded(self):
        rng = random.Random(25)
        for _ in range(3000):
            n = rng.randrange(1, 10**12)
            assert factorize(n) == sympy_factorize(n), n

    @pytest.mark.parametrize(
        "n", [4093**2, 4099**2, 4093 * 4099, 2**40, 4093, 4099, 2 * 4099, 4091 * 4093]
    )
    def test_matches_sympy_at_the_trial_bound(self, n):
        # 4093 is the largest trial prime and 4099 the next prime after it
        assert factorize(n) == sympy_factorize(n)

    def test_cofactor_below_the_next_square_is_prime(self, monkeypatch):
        # trial division stops at the first p with p^2 > n, and what is left
        # has no prime factor below p: it is prime without a primality test
        def refuse(n):
            raise AssertionError(f"primality test on {n}")

        monkeypatch.setattr(arith, "is_probable_prime", refuse)
        rng = random.Random(7)
        edges = [4093**2 - 1, 2 * 4099, 3 * 4091 * 4093]
        for n in edges + [rng.randrange(1, 4093**2) for _ in range(500)]:
            assert factorize(n) == sympy_factorize(n), n

    def test_bound_on_pollard_rho_steps(self, monkeypatch):
        # rho splits 1000003 * 1000033 in 478 steps, not within 100; trial
        # division and the primality test need no step
        n = 1_000_003 * 1_000_033
        assert factorize(n) == {1_000_003: 1, 1_000_033: 1}
        monkeypatch.setattr(arith, "_RHO_STEPS", 100)
        assert factorize(2 * 1_000_003**2) == {2: 1, 1_000_003: 2}
        with pytest.raises(FactorBoundExceeded) as info:
            factorize(6 * n)
        assert str(info.value) == f"cannot factor {6 * n} within the bound of 100 Pollard rho steps"

    @pytest.mark.parametrize(
        "low, bits, steps", [(3 << 66, 136, 100), (3 << 134, 272, 25)], ids=["136-bits", "272-bits"]
    )
    def test_bound_falls_with_the_cofactor_size(self, monkeypatch, low, bits, steps):
        # up to 136 bits a cofactor gets the whole bound, above it
        # _RHO_STEPS * 136^2 // bits^2
        monkeypatch.setattr(arith, "_RHO_STEPS", 100)
        p = nextprime(low)
        n = p * nextprime(p)
        assert n.bit_length() == bits
        with pytest.raises(FactorBoundExceeded) as info:
            factorize(n)
        assert str(info.value) == f"cannot factor {n} within the bound of {steps} Pollard rho steps"
