"""Exact integer and rational arithmetic.

Everything in this package computes with unbounded integers and
:class:`fractions.Fraction` rationals.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def integer_sqrt(n: int) -> tuple[int, bool]:
    """Floor square root of ``n`` plus a perfect-square flag.

    Returns ``(r, exact)`` with ``r = floor(sqrt(n))`` and
    ``exact`` true iff ``r*r == n``.  Raises ValueError for ``n < 0``.
    """
    if n < 0:
        raise ValueError(f"integer_sqrt of negative number {n}")
    r = math.isqrt(n)
    return r, r * r == n


def rational_perfect_square(q: Fraction) -> tuple[Fraction, bool]:
    """Exact square root of a non-negative rational, if one exists.

    ``q`` is a square of a rational iff its reduced numerator and
    denominator are both perfect squares.  Returns ``(root, True)``
    with ``root >= 0`` in that case and ``(0, False)`` otherwise.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"rational_perfect_square of negative number {q}")
    rn, okn = integer_sqrt(q.numerator)
    if not okn:
        return Fraction(0), False
    rd, okd = integer_sqrt(q.denominator)
    if not okd:
        return Fraction(0), False
    return Fraction(rn, rd), True


# ---------------------------------------------------------------------------
# factorization: trial division + Miller-Rabin + Pollard rho (Brent variant)
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 4096


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    limit = _TRIAL_LIMIT
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, f in enumerate(sieve) if f)


# Deterministic Miller-Rabin witness set; correct far beyond the ~6e21
# characteristic products this package produces.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of a composite ``n`` with no small prime factors."""
    if n % 2 == 0:
        return 2
    x0 = 2
    c = 1
    while True:
        x = y = x0
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        x0 += 1
        c += 2


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of ``n >= 1`` as ``{prime: exponent}``."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors

    rest = [n]  # cofactors still to split, the next one last
    while rest:
        m = rest.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        r, exact = integer_sqrt(m)
        if exact:
            rest += [r, r]
            continue
        d = _pollard_rho(m)
        rest += [m // d, d]
    return factors


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = m * s**2`` with ``m`` square-free; returns ``(m, s)``."""
    if n < 1:
        raise ValueError(f"squarefree_decompose requires n >= 1, got {n}")
    m, s = 1, 1
    for p, e in factorize(n).items():
        if e % 2:
            m *= p
        s *= p ** (e // 2)
    return m, s


def squarefree_part(n: int) -> int:
    """The unique square-free ``m`` with ``n = m * s**2``, for ``n >= 1``."""
    return squarefree_decompose(n)[0]


def merge_squarefree(k1: int, s1: int, k2: int, s2: int) -> tuple[int, int]:
    """Square-free decomposition of a product from those of its factors.

    Given ``x = k1*s1**2`` and ``y = k2*s2**2`` with ``k1, k2`` square-free,
    ``x*y = k*s**2`` where ``k = k1*k2/g**2`` and ``s = s1*s2*g`` for
    ``g = gcd(k1, k2)``.  Avoids refactoring the (possibly huge) product.
    """
    g = math.gcd(k1, k2)
    return (k1 // g) * (k2 // g), s1 * s2 * g
