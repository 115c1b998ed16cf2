"""Exact integer arithmetic: strict decimal parsing, factorization and
square-free parts, and the per-call bounds on factoring steps and memory.

Unbounded integers only; there is no floating point anywhere in the
package.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import Optional


def decimal_int(text: str) -> int:
    """The integer a plain ASCII decimal ``-?[0-9]+`` names.

    ``int()`` alone also reads digit separators, signs, surrounding space
    and non-ASCII digits, which another reader of the same input may not;
    anything else raises ValueError.
    """
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"{text!r} is not a plain decimal integer")
    return int(text)


# ---------------------------------------------------------------------------
# factorization: trial division + Miller-Rabin + Pollard rho (Floyd cycle finding)
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 4096


def primes_up_to(limit: int) -> list[int]:
    """The primes p <= ``limit``, in increasing order (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (max(limit, 1) + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, f in enumerate(sieve) if f]


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_up_to(_TRIAL_LIMIT))


# Miller-Rabin witnesses: the primes up to 41 decide every n below
# 3317044064679887385961981 (Sorenson and Webster 2015), a strong
# pseudoprime to them that fails base 43; above it the verdict is probable.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
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


# Pollard rho steps allowed on one composite cofactor of up to 136 bits
# (41 digits), over all its restarts.  Rho takes about sqrt(p) steps to
# split off a prime p, so this splits in practice such a cofactor whose
# least prime is below about 10^11 (the 12-digit factors of the strong
# pseudoprime 318665857834031151167461 take 188 312 steps).  A step costs
# more as the cofactor grows: 2^20 steps took 2.1 s at 135 bits, 5.9 s at
# 331, 20.5 s at 995 and 147 s at 3 321 bits on one x86-64 core, so a
# larger cofactor gets fewer, about 1 s or less in all (``_rho_steps``).
_RHO_STEPS = 1 << 20


def _rho_steps(n: int) -> int:
    """``_RHO_STEPS`` for a cofactor n of up to 136 bits, and
    ``_RHO_STEPS * 136**2 // bits**2`` above."""
    return _RHO_STEPS * 136**2 // max(n.bit_length(), 136) ** 2


@lru_cache(maxsize=1)
def physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None when the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


class FactorBoundExceeded(ArithmeticError):
    """A number with a cofactor that Pollard rho does not split within
    ``_rho_steps`` steps."""


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of a composite ``n`` with no small prime factors,
    or 0 when ``_rho_steps(n)`` steps find none."""
    if n % 2 == 0:
        return 2
    x0 = 2
    c = 1
    steps = _rho_steps(n)
    while steps > 0:
        x = y = x0
        d = 1
        while d == 1 and steps > 0:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            steps -= 1
        if d != 1 and d != n:
            return d
        x0 += 1
        c += 2
    return 0


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of ``n >= 1`` as ``{prime: exponent}``.

    Raises ``FactorBoundExceeded`` when a composite cofactor does not split
    within ``_rho_steps`` Pollard rho steps.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    value = n
    factors: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            # no prime below p divides n < p^2, so n is 1 or a prime
            if n > 1:
                factors[n] = 1
            return factors
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
        r = math.isqrt(m)
        if r * r == m:
            rest += [r, r]
            continue
        d = _pollard_rho(m)
        if not d:
            raise FactorBoundExceeded(
                f"cannot factor {value} within the bound of {_rho_steps(m):,} Pollard rho steps"
            )
        rest += [m // d, d]
    return factors


def squarefree_part(n: int) -> int:
    """The unique square-free ``m`` with ``n = m * s**2``, for ``n >= 1``."""
    if n < 1:
        raise ValueError(f"squarefree_part requires n >= 1, got {n}")
    m = 1
    for p, e in factorize(n).items():
        if e % 2:
            m *= p
    return m
