"""Exhaustive search for plane integral point sets in general position.

The search anchors every point set at its diameter edge: p1 = (0,0) and
p2 = (d,0) where d is the largest distance (canonical form always puts it
first).  Every further point lies at integral distances a, b <= d from the
base points, which makes the triangle (d, a, b) strict and forces all
candidate points for one set to share a single square-free characteristic
k.  Candidate generation therefore runs per (d, k), and point sets are
cliques in the candidate compatibility graph, filtered by the exact
no-three-collinear and no-four-concyclic predicates and emitted once in
canonical form.

Writing u = a + b and v = a - b turns the characteristic of (d, a, b)
into the square-free part of (u^2 - d^2)(d^2 - v^2).  The square-free
parts of the two halves come from one sieve per diameter over the values
d^2 - v^2 and u^2 - d^2 themselves, with no table and no gcd: such a value
is x*y with x and y summing or differing to 2d, so at a prime p with
p^E || 2d it holds p^2 exactly where p divides x if E >= 1, and where p^2
divides x or y if E = 0; higher powers go the same way, and each such
place is a residue class of the index (``_spf_sieve``).  A fixed k sieves
k*(u^2 - d^2), whose part is the key kb = sqf(ka*k) that a u looks up.
Both halves get the key the characteristic filter needs (kb itself for a
fixed k, the part of kb prime to the bound for a divisor filter), and the
v's are indexed by it as a semi-join: only keys that some u looks up are
indexed, and each such u finds its admitted v's with one dict lookup
instead of a scan of all (a, b) pairs.  The admitted pairs are counted
before any is built, and an index that would not fit in physical memory
is refused.

The clique stage takes one bucket of classes (a, b, X, S) as the index
sorts it, closed under the reflection (a, b) -> (b, a) in the
perpendicular bisector of the base, and gives class i two vertices: 2i
below the base line and 2i + 1 above it.  It keeps one integer bitset of
neighbours per vertex.  Mirroring in the base line keeps distances, so a
pair of classes is tested once with equal and once with opposite signs of
y, for all four of its signed pairs.  The bisector reflection swaps the
base points and keeps distances and signs, so only one pair of each orbit
under it is tested and an edge found there joins the reflected pair too,
which halves the tests.  An edge of length t has squared scaled length
(2d*t)^2, a multiple of 4d^2 (the screen below) and a perfect square, so
only the perfect squares among the squared lengths have their root taken,
and it must be a multiple of 2d of at most 2d^2.  An edge is dropped when
its two points are collinear with a base point or concyclic with both, so
the clique search tests only triples and quadruples of chosen points.
These are the kernel's three base-point tests (``pointset._line`` and
``pointset._circle``), which the edge build writes out in closed form, one
integer cross-multiplication each, while the clique search and ``verify``
call the kernel.  Two classes on one ray from (0, 0) lie an integral
|a - a'| apart, and with equal signs of y on one line through (0, 0),
and their bisector images on one through (d, 0): such a pair passes the
screen and the root only for a base test to drop it.  So each class and
its bisector image form a reflection pair, the pairs of a sign group
(below) are sorted by the ray of one class of each, and that class is
not tested with equal signs against the others of its ray.  A key with no
edge stops there when n >= 4.  k-core pruning removes vertices with fewer
than n - 3 live neighbours.  The depth-first search then runs on an
explicit stack of candidate bitsets, one per depth, and takes candidates
lowest index first; after each new vertex it keeps the candidates among
its neighbours (a bitset intersection) that lie on no line through it and
an earlier chosen point and on no circle through it and two earlier chosen
or base points, and it drops a level once the chosen and remaining
vertices cannot reach n - 2.  A key whose k-core is empty stops there.

Most pairs that the screen would reject are never formed.  As X^2 + kY^2 =
4d^2 a^2, a pair passes the screen exactly when X*Xq + k*Y*Yq = 0 mod 2d^2.
Let p be an odd prime with p^e || d and p^v || gcd(X, Y), and let X' =
X/p^v and Y' = Y/p^v.  If v < e, then X'^2 + kY'^2 = 0 mod p^2, which
rules out p | k, and so X'/Y' = +-s mod p for a root s of -k: the vertex
has a sign at p.  Two vertices with signs at p pass the screen only when
X'Xq' + kY'Yq' = 0 mod p, that is when their signs agree.  A vertex with
e <= v < 2e is wild at p: with a vertex q that has vq = 0 it passes the
screen only when X'Xq + kY'Yq = 0 mod p^(2e - v), so only when X'/Y' is
Xq/Yq mod p, which is q's sign.  Its X'/Y' is either sign or neither, and
when it is neither the vertex passes with no vq = 0 vertex at all.  Wild
vertices are constrained against vq = 0 vertices only, which is sound,
and is the exact rule v + vq < 2e when e = 1.  A vertex with v >= 2e is a
wildcard at p, and so is every vertex when p divides k or -k is not a
square mod p, as no vertex then has a sign.  No root and no Legendre
symbol is needed: "same sign" is X'*Y1' = X1'*Y' mod p against the first
class with a sign at p.  The mirror in the base line and the bisector
reflection both flip every sign, wild ones included, as 2d^2 = 0 mod
p^(2e).  So each class and its bisector image are oriented to agree with
that first class at their lowest prime with a sign, and these pairs are
grouped by sign pattern.  A row tests, with equal signs of y, the blocks
whose pattern agrees with its own where the two are constrained, and
with opposite signs of y those whose pattern is opposite there; the
reflection still halves the tests within each block.  The primes of d
are factored once per d.  The prime 2 is left out.

Most keys at n = 4 are decided before any of this, by two rules that the
candidate index evaluates on the raw (u, v) pairs of each key, before any
entry (a, b, X, S), square root or clique stream exists for it.  A pair
gives the classes (a, b) and (b, a), or one class when v = 0.  Unless k is
1, the only square among square-free keys, the two vertices of one class
lie an irrational 2S*sqrt(k)/(2d) apart, so a clique holds at most one of
them, and a key with fewer than n - 2 classes (half as many when k is 1)
holds no set.  A key of one class c and its bisector image c' then holds a
4-point set only through an edge from c to c'.  With opposite signs of y,
(0, 0), p, (d, 0) and p' form a parallelogram whose diagonals are the base
and the edge, so t^2 = 2a^2 + 2b^2 - d^2 = u^2 + v^2 - d^2, and the key
holds no set unless t is an integer of at most d.  With equal signs they
form an isosceles trapezoid, which is cyclic, so the base-circle test
drops that edge.  At n = 3 a single vertex is a set, so this rule applies
at n = 4 only.  A key that either rule decides keeps an empty bucket: the
search still counts it for its shard and logs it as done in a checkpoint,
but it starts no clique stream.

Each point set is canonicalized once per orbit of cliques, not once per
clique (McKay, "Isomorph-free exhaustive generation", 1998).  The mirror M
in the base line (vertex v -> v ^ 1) and the bisector reflection R (vertex
2i + s -> 2j + s, class j being the image of class i) generate a group
G = {id, M, R, MR}.  Each element keeps distances, edges, the base tests
and the line and circle tests, so G maps cliques to cliques of the same
set.  The search yields cliques in lexicographic order of their vertex
tuples, so the first clique of every set is the least of its G-orbit, the
orbit leader, and only leaders are canonicalized: a leaf with a smaller
image under M, R or MR is skipped, and no odd vertex is taken as the root,
as its mirror would be smaller (odd vertices stay candidates deeper down).
The set of forms already emitted is still needed: a set with two diameter
edges is found from both, as two cliques that G does not relate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import BinaryIO, Iterator, Optional

from .arith import decimal_int, factorize, physical_memory, primes_up_to
from .pointset import DistanceMatrix, _avoids, _circle, _line, canonical_form

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharFilter:
    """Characteristic restriction: everything, one value, or divisors of one."""

    kind: str = "any"  # "any" | "fixed" | "divisor"
    value: Optional[int] = None
    # the primes of value, in increasing order: value is factored here once,
    # and a value too hard to factor raises FactorBoundExceeded
    primes: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("any", "fixed", "divisor"):
            raise ValueError(f"unknown characteristic filter kind {self.kind!r}")
        if self.kind == "any":
            if self.value is not None:
                raise ValueError("'any' filter takes no value")
        else:
            if self.value is None or self.value < 1:
                raise ValueError(f"filter value must be a positive integer, got {self.value}")
            factors = factorize(self.value)
            if any(e > 1 for e in factors.values()):
                raise ValueError(f"filter value {self.value} is not square-free")
            object.__setattr__(self, "primes", tuple(sorted(factors)))

    @staticmethod
    def any_char() -> "CharFilter":
        return CharFilter("any")

    @staticmethod
    def fixed(k: int) -> "CharFilter":
        return CharFilter("fixed", k)

    @staticmethod
    def divisor_of(n: int) -> "CharFilter":
        return CharFilter("divisor", n)

    @staticmethod
    def parse(text: str) -> "CharFilter":
        if text == "any":
            return CharFilter.any_char()
        if text.startswith("div:"):
            return CharFilter.divisor_of(decimal_int(text[4:]))
        return CharFilter.fixed(decimal_int(text))

    def admits(self, k: int) -> bool:
        if self.kind == "any":
            return True
        if self.kind == "fixed":
            return k == self.value
        return self.value % k == 0


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run."""

    target_n: int
    d_min: int
    d_max: int
    char_filter: CharFilter = field(default_factory=CharFilter.any_char)
    shard: tuple[int, int] = (0, 1)

    def __post_init__(self):
        if self.target_n < 3:
            raise ValueError(f"target size must be >= 3, got {self.target_n}")
        if not (1 <= self.d_min <= self.d_max):
            raise ValueError(f"need 1 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        index, total = self.shard
        if total < 1 or not (0 <= index < total):
            raise ValueError(f"invalid shard {self.shard}")


# ---------------------------------------------------------------------------
# triangle and candidate enumeration
# ---------------------------------------------------------------------------


def enumerate_triangles(d_max: int) -> Iterator[tuple[int, int, int]]:
    """All integer triangles a >= b >= c with a <= d_max, strict inequalities.

    Streamed in lexicographically decreasing (a, b, c) order.  The triangles
    (d, a, b) of one characteristic filter come from ``_candidate_groups``.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    for a in range(d_max, 0, -1):
        for b in range(a, 0, -1):
            for c in range(b, a - b, -1):  # c > a - b >= 0
                yield a, b, c


# The bytes one admitted (u, v) pair costs the candidate index at its peak:
# its tuple in ``pairs`` and the two entries (a, b, X, S) of its bucket,
# with their ints, lists and list slots.  The tracemalloc peak of the
# unfiltered index at n = 3, where every key is built, is 366 to 464 bytes
# a pair over d = 100..1200, and 440 to 464 from d = 800 on.
_PAIR_BYTES = 450


def _spf_sieve(d: int, k: int = 1, k_primes: tuple[int, ...] = ()) -> tuple[list[int], list[int]]:
    """Square-free parts of the values that the candidate index of diameter
    d keys by: of d^2 - v^2 for v = 0..d-1, and of k*(u^2 - d^2) for
    u = d+1..2d, for a square-free k whose primes are ``k_primes``.

    One sieve per diameter, by residue classes of the index, with no table
    and no gcd: the square divisor of each value is grown by slices, and
    each value is divided by it once at the end.  Write a value as k*x*y,
    with x = d - v and y = d + v, or x = u - d and y = u + d, so that x and
    y sum or differ to 2d.  At a prime p with p^E || 2d, and c = 1 when p
    divides k (else 0), the value loses one p^2 for each i >= 1 with
    v_p(x) + v_p(y) + c >= 2i.  Below E the two valuations are equal, and
    when both reach E one of them is E.  So with tau = 2i - c this holds
    exactly where p^ceil(tau/2) divides x when ceil(tau/2) <= E, and
    otherwise where p^(tau - E) divides x or y (never both, as tau - E > E).
    Each is a residue class of the index: v = +-d or u = +-d mod that
    power.  As x <= d and y <= 3d, only the primes up to sqrt(3d), the
    primes of 2d and the primes of k up to 3d divide a value more than
    once; a larger prime of k divides no x or y.  The primes of 2d are
    those of d's one factorization (``_odd_prime_powers``) and 2.

    The divisors are grown, rather than the values divided in place, so
    that the parts come out as ints made one after another.  The index
    hashes every part, and at d = 70003 that took twice as long on parts
    replaced piecemeal and scattered through memory.

    ``perfbench/tracing.py`` wraps this function as ``search.sieve``.
    """
    top = 3 * d
    v_squares, u_squares = [1] * d, [1] * d
    small = primes_up_to(math.isqrt(top))
    # 2^(v_2(d) + 1) || 2d, as 2^v_2(d) = d & -d
    exponents = {p: e for p, e, _, _ in _odd_prime_powers(d)} | {2: (d & -d).bit_length()}
    # (square divisors, the index where x = 0 and where y = 0 mod any
    # power, the primes with c = 1): index v has x = d - v and y = d + v,
    # index u - d - 1 has x = u - d and y = u + d
    sides = ((v_squares, d, -d, ()), (u_squares, -1, -2 * d - 1, k_primes))
    for p in {*small, *exponents, *(q for q in k_primes if q <= top)}:
        e = exponents.get(p, 0)
        p2 = p * p
        for squares, at_x, at_y, with_c in sides:
            tau = 1 if p in with_c else 2
            while True:
                if (tau + 1) // 2 <= e:
                    m = p ** ((tau + 1) // 2)
                    starts: tuple[int, ...] = (at_x % m,)
                else:
                    m = p ** (tau - e)
                    if m > top:
                        break
                    starts = (at_x % m, at_y % m)
                for s in starts:
                    squares[s::m] = [q * p2 for q in squares[s::m]]
                tau += 2
    # each value x*y over its square divisor, with k*x for x on the u side
    v_xs, u_xs = range(d, 0, -1), range(k, k * d + 1, k)
    return (
        [x * y // q for x, y, q in zip(v_xs, range(d, 2 * d), v_squares)],
        [x * y // q for x, y, q in zip(u_xs, range(2 * d + 1, top + 1), u_squares)],
    )


def _candidate_groups(
    d: int, char_filter: CharFilter, n: int = 3
) -> dict[int, list[tuple[int, int, int, int]]]:
    """Candidates over base (0,0)-(d,0) for n-point sets, grouped by
    characteristic.

    Each entry is ``(a, b, X, S)`` in coordinates scaled by 2d: the point is
    ``(X/(2d), (S/(2d))*sqrt(k))`` before sign choice, at distances a, b <= d
    from the base points, so that the base edge is the diameter.  Every
    bucket is sorted and closed under the reflection (a, b) -> (b, a).

    With u = a + b and v = a - b the characteristic k is the square-free
    part of ka*kb, where ka is that of u^2 - d^2 and kb that of d^2 - v^2;
    both come from one sieve of this diameter's values (``_spf_sieve``).
    Each kb and each ka is given the key of the filter, and a v and a u
    combine into an admitted candidate exactly when their keys are equal:

    * a fixed k keys kb itself and ka by the square-free part of ka*k, which
      the sieve gives directly from the values k*(u^2 - d^2).  Every
      admitted pair then has characteristic k, so no ka is needed;
    * a divisor bound B keys both by the rough part m // gcd(m, B).  As ka
      and kb are square-free, k = ka*kb/gcd(ka, kb)^2 holds the primes of
      exactly one of them, so k divides B exactly when ka and kb have the
      same primes outside B, that is, equal rough parts;
    * no restriction gives every kb and ka the same key.

    The pairing is a semi-join: only the v's whose key some u has are
    indexed, and only the u's whose key is in that index are walked, one
    lookup each.  The admitted (u, v) pairs are counted first, one bisection
    per u, and an index whose estimated size (``_PAIR_BYTES`` a pair)
    exceeds physical memory raises ``MemoryError`` before any pair is
    built.  The pairs are then grouped by k.  A key
    whose pairs cannot hold an n-point set (the class count and, at n = 4,
    the one-orbit rule of the module docstring) keeps an empty bucket, so
    that the search still counts it; no entry is built for it.  At n = 3
    every key holds a set.  S is computed for the entries of the other keys
    only, as isqrt of the Heron product (u^2 - d^2)(d^2 - v^2) divided by k.
    """
    d2 = d * d
    fixed = char_filter.kind == "fixed"
    if fixed:
        v_keys, u_keys = _spf_sieve(d, char_filter.value, char_filter.primes)
    else:
        v_parts, u_parts = _spf_sieve(d)
        if char_filter.kind == "divisor":
            bound = char_filter.value
            v_keys = [kb // math.gcd(kb, bound) for kb in v_parts]
            u_keys = [ka // math.gcd(ka, bound) for ka in u_parts]
        else:
            v_keys = [1] * d
            u_keys = [1] * d

    # the looked-up v's by key, split by parity (v = a - b has the parity
    # of u = a + b)
    wanted = set(u_keys)
    index: dict[int, tuple[list[int], list[int]]] = {}
    for v in [v for v, key in enumerate(v_keys) if key in wanted]:
        index.setdefault(v_keys[v], ([], []))[v & 1].append(v)

    # each looked-up u with its v's and the number of them admitted, those
    # up to 2d - u (a, b <= d)
    reach = []
    for i in [i for i, key in enumerate(u_keys) if key in index]:
        u = d + 1 + i
        vs = index[u_keys[i]][u & 1]
        reach.append((u, i, vs, bisect_right(vs, 2 * d - u)))
    count = sum(cut for _, _, _, cut in reach)
    memory = physical_memory()
    if memory is not None and count * _PAIR_BYTES > memory:
        raise MemoryError(
            f"the candidate index of d = {d} holds {count:,} (u, v) pairs, about "
            f"{count * _PAIR_BYTES:,} bytes at {_PAIR_BYTES} bytes a pair, more than the "
            f"{memory:,} bytes of physical memory"
        )

    pairs: dict[int, list[tuple[int, int]]] = {}
    if fixed:
        uvs = [(u, v) for u, _, vs, cut in reach for v in vs[:cut]]
        if uvs:
            pairs[char_filter.value] = uvs
    else:
        for u, i, vs, cut in reach:
            ka = u_parts[i]
            for v in vs[:cut]:
                kb = v_parts[v]
                pairs.setdefault(ka * kb // math.gcd(ka, kb) ** 2, []).append((u, v))

    need = n - 2
    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    while pairs:  # each key's pairs are let go once its bucket is built
        k, uvs = pairs.popitem()
        groups[k] = bucket = []
        # a pair gives the classes (a, b) and (b, a), one class when v = 0;
        # unless k = 1, a clique holds one vertex of each class
        classes = 2 * len(uvs) - sum(1 for _, v in uvs if not v)
        if (2 * classes if k == 1 else classes) < need:
            continue
        # one orbit at n = 4: the parallelogram diagonal, of squared length
        # 2a^2 + 2b^2 - d^2 = u^2 + v^2 - d^2, must be an integer <= d
        if need == 2 and k != 1 and len(uvs) == 1 and uvs[0][1]:
            u, v = uvs[0]
            t2 = u * u + v * v - d2
            if math.isqrt(t2) ** 2 != t2 or t2 > d2:
                continue
        for u, v in uvs:
            s = math.isqrt((u * u - d2) * (d2 - v * v) // k)
            a, b = (u + v) // 2, (u - v) // 2
            bucket.append((a, b, u * v + d2, s))
            if v:
                bucket.append((b, a, d2 - u * v, s))
        bucket.sort()
    return groups


# ---------------------------------------------------------------------------
# clique extension
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _odd_prime_powers(d: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p, e, p^e, p^2e) for each odd prime p with p^e || d, in increasing
    order: d's one factorization, read by its sieve and its keys' signs.

    Cached for one d: a search sieves each d, then takes its keys in a row.
    """
    return tuple((p, e, p**e, p ** (2 * e)) for p, e in sorted(factorize(d).items()) if p > 2)


def _sign_groups(
    d: int, k: int, classes: list[tuple[int, int, int, int]], image_of: list[int]
) -> list[tuple[tuple[int, int, int, int, int], tuple[list, list, list[int]]]]:
    """The reflection pairs of ``classes`` grouped by their signs at the odd
    primes of d, as ((care, zero, wild, none, bits), (lows, highs, ends))
    in order of first use.

    At a prime p with p^e || d, let p^v be the power of p that divides both
    X and S, and X'/S' the ratio with it taken out.  A class with v < e has
    a sign: X'/S' is congruent mod p to that of the first such class, the
    reference, or to its negative.  A class with e <= v < 2e is wild: its
    X'/S' is the reference's, its negative, or neither.  ``care`` has a bit
    for each prime where the class has a sign and ``zero`` one for each of
    those where v = 0; ``wild`` has a bit for each prime where the class is
    wild with a sign and ``none`` one for each where it is wild with
    neither.  ``bits`` has one for each prime of ``care`` or ``wild`` where
    the upper vertex (Y = S) has the sign opposite to the reference's.  A
    prime where no class has a sign gives no bits.  The bisector reflection
    flips every sign, so each pair is oriented to agree with the reference
    at its lowest prime in ``care`` or ``wild``: that class goes to
    ``lows`` and its image to ``highs``, at the same place.  The classes
    that the reflection fixes have no sign and follow the pairs in the lows
    of group (0, 0, 0, 0, 0).  An entry is (X, S, k*S^2, the class's
    index).

    The pairs of a group are sorted by the ray of their low from (0, 0),
    the reduced (X, S), so that the lows on one ray form a run, and
    ``ends[r]`` is the end of the run of the r-th low; a class that the
    reflection fixes is a run of its own.  A group of one pair does no ray
    work.
    """
    x2 = 2 * d * d
    # each prime where some class has a sign, with that first class's X'/S'
    primes = []
    for p, _, pe, pe2 in _odd_prime_powers(d):
        for _, _, x, y in classes:
            g = math.gcd(x, y, pe)
            if g != pe:
                primes.append((p, pe, pe2, x // g, y // g))
                break
    groups: dict[tuple[int, int, int, int, int], tuple[list, list]] = {}
    fixed = []
    for i, (_, _, x, y) in enumerate(classes):
        j = image_of[i]
        if i == j:
            fixed.append((x, y, k * y * y, i))
        elif i < j:
            care = zero = wild = none = bits = 0
            for bit, (p, pe, pe2, rx, ry) in enumerate(primes):
                g = math.gcd(x, y, pe)
                if g != pe:
                    care |= 1 << bit
                    if g == 1:
                        zero |= 1 << bit
                    if (x // g * ry - rx * (y // g)) % p:
                        bits |= 1 << bit
                elif (g := math.gcd(x, y, pe2)) != pe2:
                    # X'*S1' against X1'*S': equal, opposite or neither
                    left, right = x // g * ry, rx * (y // g)
                    if (left - right) % p == 0:
                        wild |= 1 << bit
                    elif (left + right) % p == 0:
                        wild |= 1 << bit
                        bits |= 1 << bit
                    else:
                        none |= 1 << bit
            low, high = (x, y, k * y * y, i), (x2 - x, y, k * y * y, j)
            signed = care | wild
            if bits & signed & -signed:
                low, high, bits = high, low, bits ^ signed
            lows, highs = groups.setdefault((care, zero, wild, none, bits), ([], []))
            lows.append(low)
            highs.append(high)
    if fixed:
        groups.setdefault((0, 0, 0, 0, 0), ([], []))[0].extend(fixed)
    blocks = []
    for key, (lows, highs) in groups.items():
        ends = list(range(1, len(lows) + 1))
        if len(highs) > 1:
            # the pairs by the ray of their low from (0, 0), X and S > 0
            rays = [(x // (g := math.gcd(x, y)), y // g) for x, y, _, _ in lows[: len(highs)]]
            rays, lows[: len(highs)], highs[:] = zip(*sorted(zip(rays, lows, highs)))
            for r in range(len(highs) - 2, -1, -1):
                if rays[r] == rays[r + 1]:
                    ends[r] = ends[r + 1]
        blocks.append((key, (lows, highs, ends)))
    return blocks


def _adjacency(
    d: int, k: int, classes: list[tuple[int, int, int, int]], image_of: list[int]
) -> tuple[list[int], int]:
    """Neighbour bitsets of the signed vertices of ``classes``, vertex 2i
    below the base line and 2i + 1 above it, as ``_clique_stream`` numbers
    them, and the number of vertex pairs tested: two vertices are joined
    when they lie an integral distance of at most d apart, on no line
    through a base point and on no circle through both.  Those are the
    kernel's tests ``_line(base, p)`` and ``_circle(base1, base2, p)`` for
    the row's vertex p, written out: with x2 = 2d^2, q = (xq, yq) is
    rejected when x*yq = xq*y, when (x2 - x)*yq = (x2 - xq)*y, or when
    (x2*x - x^2 - k*y^2)*yq = (x2*xq - xq^2 - k*yq^2)*y, each checked only
    for a pair at integral distance.

    Each low of ``_sign_groups`` is one row.  A prime constrains two
    classes when both have a sign there (``care``), or when one is wild
    with a sign and the other has v = 0 (``wild`` against ``zero``).  Two
    classes whose signs differ at a prime that constrains them fail the
    4d^2 screen with equal signs of y, and two whose signs agree there fail
    it with opposite signs; a class wild with neither sign fails it both
    ways with every class of v = 0 there (module docstring).  So a row
    tests, with equal signs, the lows of each later group whose bits agree
    with its own on the primes that constrain the two groups and the highs
    of each one whose bits are opposite there, and with opposite signs the
    other way round; a group that no prime constrains with it is tested
    both ways, and one blocked by ``none`` not at all.  Within a group only
    the primes of ``care`` constrain.  The r-th low of a group tests the
    lows and highs of its own group from the r-th on, so each orbit of
    class pairs under the reflection is tested once, and an edge found also
    joins the images; but with equal signs it tests its group's lows only
    after the end of its run, as a low on its ray lies with it on one line
    through (0, 0), and the images of the two on one through (d, 0).
    The count of pairs tested is that of the squared distances formed, one
    per orbit and sign relation.  Of those, only the perfect squares have
    their root taken, and the root must be a multiple of 2d of at most
    2d^2: that is the 4d^2 screen and t <= d.  The base tests come last.
    """
    two_d = 2 * d
    x2 = 2 * d * d
    adj = [0] * (2 * len(classes))
    pairs = 0
    blocks = _sign_groups(d, k, classes, image_of)
    for gi, ((care, zero, wild, none, bits), (lows, highs, ends)) in enumerate(blocks):
        same: list = []
        opposite: list = []
        for (care2, zero2, wild2, none2, bits2), (lows2, highs2, _) in blocks[gi + 1 :]:
            if none & zero2 or zero & none2:
                continue
            common = care & care2 | wild & zero2 | zero & wild2
            differ = (bits ^ bits2) & common
            if not differ:
                same += lows2
                opposite += highs2
            if differ == common:
                same += highs2
                opposite += lows2
        for r, (x, y, ky, i) in enumerate(lows):
            # the lows on this row's ray from (0, 0) end at ends[r]
            equal = lows[ends[r] :] + same
            flipped = highs[r:] + opposite
            if not care:
                equal += highs[r:]
                flipped += lows[r:]  # the class itself: its mirror pair
            # Squared scaled distances to the classes tested with equal
            # (flip 0) and with opposite (flip 1) signs of y; no two of the
            # vertices coincide.  An edge of length t has n2 = (2d*t)^2, so
            # only perfect squares go on, and their root must be a multiple
            # of 2d of at most 2d^2.
            two_ky = 2 * k * y
            # the row's constants of the three base tests below
            xr = x2 - x
            power = x2 * x - x * x - ky
            for flip, cross, targets in ((0, -two_ky, equal), (1, two_ky, flipped)):
                n2s = [(dx := x - xq) * dx + ky + kyq + cross * yq for xq, yq, kyq, _ in targets]
                pairs += len(n2s)
                squares = [
                    (j, root) for j, n2 in enumerate(n2s) if (root := isqrt(n2)) * root == n2
                ]
                for j, root in squares:
                    if root % two_d or root > x2:
                        continue
                    xq, yq, kyq, iq = targets[j]
                    yq = -yq if flip else yq
                    # q on the line through p and (0, 0), on the one
                    # through p and (x2, 0), or on the circle through p and
                    # both: _line(base, p) and _circle(base1, base2, p), the
                    # last divided by -x2
                    if (
                        x * yq == xq * y
                        or xr * yq == (x2 - xq) * y
                        or power * yq == (x2 * xq - xq * xq - kyq) * y
                    ):
                        continue
                    # the edge joins the vertices with the sign relation
                    # tested (flip 0: equal signs), in this class pair and
                    # in its image
                    for one, other in ((i, iq), (image_of[i], image_of[iq])):
                        for vp, vq in (
                            (2 * one, 2 * other + flip), (2 * one + 1, 2 * other + 1 - flip)
                        ):
                            adj[vp] |= 1 << vq
                            adj[vq] |= 1 << vp
    return adj, pairs


def _clique_stream(
    d: int,
    k: int,
    classes: list[tuple[int, int, int, int]],
    n: int,
) -> Iterator[DistanceMatrix]:
    """Canonical n-point sets from cliques over the signed vertices of classes.

    ``classes`` is one bucket of ``_candidate_groups``: sorted entries
    (a, b, X, S) with X = 2d*x and S = 2d*|y_coeff| > 0, closed under the
    reflection (a, b, X, S) -> (b, a, 2d^2 - X, S).  Vertex 2i is class i
    below the base line (Y = -S) and vertex 2i + 1 is class i above it
    (Y = S), so the vertices are in sorted (a, b, X, Y) order.  Pairwise
    distances are capped at d: the base edge must stay the diameter, so any
    longer pair belongs to a different base.

    The edges come from ``_adjacency``.  It groups the reflection pairs of
    classes by their signs at the odd primes of d, wild vertices' included
    (``_sign_groups``), and tests a pair of classes with equal signs of y
    only where their signs agree and with opposite signs only where they
    are opposite: the other pairs fail the 4d^2 screen.  Nor does it test
    two classes on one ray from (0, 0) with equal signs, which a base test
    drops.  The exact root, the base tests and the vertex numbering are
    those of a test of every pair, so the edges are too.  A key with no
    edge returns at n >= 4; at n = 3 a lone vertex is a set.

    The depth-first search runs on an explicit stack of candidate bitsets,
    lowest index first, so cliques come out in the order of an ascending
    index scan.  A key whose k-core is empty returns before the search is
    set up; the keys that the class count or the one-orbit rule decide never
    get here (``_candidate_groups``).  Of each orbit of cliques under
    G = {id, M, R, MR}, with M the mirror v -> v ^ 1 and R the bisector
    reflection 2i + s -> 2j + s, only the least reaches ``canonical_form``:
    a leaf is skipped when M, R or MR maps it to a smaller sorted tuple,
    and odd vertices are never taken as the root.  The first clique of a
    set is its orbit's least, so the output is unchanged.  ``seen`` stays,
    because a set with two diameter edges is found from both, by cliques
    that G does not relate.  The body is one generator with no nested
    function: it holds no reference cycle, and a finished or closed stream
    leaves nothing for the cyclic collector.  The module docstring
    describes the stages.
    """
    need = n - 2
    nv = 2 * len(classes)

    # The reflection R in the perpendicular bisector of the base maps class
    # (a, b, X, S) to (b, a, 2d^2 - X, S): it swaps the base points and
    # keeps y signs and distances, so two classes are joined exactly when
    # their images are.  `image_of` gives the index of each class's image.
    position = {(a, b): i for i, (a, b, _, _) in enumerate(classes)}
    image_of = [position[b, a] for a, b, _, _ in classes]
    adj, _ = _adjacency(d, k, classes, image_of)
    if n >= 4 and not any(adj):
        return

    # k-core: every vertex of a clique on `need` vertices has `need - 1`
    # neighbours in it.
    alive = (1 << nv) - 1
    shrinking = True
    while shrinking:
        shrinking = False
        for v in range(nv):
            if alive >> v & 1 and (adj[v] & alive).bit_count() < need - 1:
                alive ^= 1 << v
                shrinking = True
    if not alive:
        return

    edge_unit = 4 * d * d
    x2 = 2 * d * d
    base1, base2 = (0, 0, 0), (x2 * x2, x2, 0)  # lifted (0, 0) and (x2, 0)
    lifts = [(x * x + k * y * y, x, y) for _, _, x, s in classes for y in (-s, s)]
    # R on vertices; the mirror M in the base line is v ^ 1
    reflect = [2 * j + side for j in image_of for side in (0, 1)]

    # Depth-first over an explicit stack: stack[i] holds the candidates
    # left at depth i, where chosen[:i] is fixed, and its lowest bit is
    # taken next.  A level is dropped once its chosen and remaining
    # vertices cannot reach `need`.
    seen: set[tuple[tuple[int, ...], ...]] = set()
    chosen: list[int] = []
    stack = [alive]
    while stack:
        cands = stack[-1]
        if len(chosen) + cands.bit_count() < need:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        low = cands & -cands
        stack[-1] = cands ^ low
        v = low.bit_length() - 1
        if not chosen and v & 1:
            continue  # an orbit leader's lowest vertex is even
        chosen.append(v)
        if len(chosen) == need:
            # Only the least clique of each orbit under {id, M, R, MR}
            # goes on; it is the first of its orbit that the DFS reaches.
            images = (
                sorted([u ^ 1 for u in chosen]),
                sorted([reflect[u] for u in chosen]),
                sorted([reflect[u] ^ 1 for u in chosen]),
            )
            if min(images) < chosen:
                chosen.pop()
                continue
            rows = [[0] * n for _ in range(n)]
            rows[0][1] = rows[1][0] = d
            for ci, vi in enumerate(chosen):
                a, b, _, _ = classes[vi >> 1]
                rows[0][ci + 2] = rows[ci + 2][0] = a
                rows[1][ci + 2] = rows[ci + 2][1] = b
                _, x, y = lifts[vi]
                for cj in range(ci + 1, need):
                    _, xq, yq = lifts[chosen[cj]]
                    t = math.isqrt(((x - xq) ** 2 + k * (y - yq) ** 2) // edge_unit)
                    rows[ci + 2][cj + 2] = rows[cj + 2][ci + 2] = t
            chosen.pop()
            # the rows of a clique are a valid matrix: no check
            canon, _ = canonical_form(DistanceMatrix._of_valid(tuple(map(tuple, rows))))
            if canon.rows not in seen:
                seen.add(canon.rows)
                yield canon
            continue
        # The candidates left below v passed every test without v; keep
        # its neighbours that lie on no line through v and an earlier
        # chosen point and on no circle through v and two earlier chosen
        # or base points.
        cands = stack[-1] & adj[v]
        if len(chosen) > 1:
            earlier = chosen[:-1]
            p = lifts[v]
            tests = [_line(lifts[c], p) for c in earlier]
            tests += [_circle(base, lifts[c], p) for base in (base1, base2) for c in earlier]
            tests += [_circle(lifts[c], lifts[e], p) for c, e in combinations(earlier, 2)]
            kept = 0
            while cands:
                low = cands & -cands
                cands ^= low
                if _avoids(tests, lifts[low.bit_length() - 1]):
                    kept |= low
            cands = kept
        stack.append(cands)


# ---------------------------------------------------------------------------
# top-level search
# ---------------------------------------------------------------------------


class CheckpointError(Exception):
    """A checkpoint file that cannot be opened, read or parsed, or that was
    written by a search with other settings."""


_CHECKPOINT_HEADER = "# intpoints checkpoint "


def _open_checkpoint(path, config: SearchConfig) -> tuple[set[tuple[int, int]], BinaryIO]:
    """Completed (d, k) keys of a checkpoint file, and the file open to append.

    The first line is a header with the settings of the search that wrote
    the file; a missing or empty file is created with the header of
    ``config``, and any other header, or none, raises ``CheckpointError``.
    A key counts only once its line ends in a newline.  An unterminated
    last line is a write cut short: it is cut off the file, so that its key
    runs again and the next append starts a line of its own.  A file with
    no complete line is taken for a cut-short header only when it holds a
    prefix of this search's header line; anything else raises.
    """
    # A key's records depend on these settings alone: the characteristic
    # filter and the shard only choose keys, so a resume may change them.
    # General position is always on; saying so refuses files headed "off".
    settings = f"n={config.target_n} general_position=on"
    header = f"{_CHECKPOINT_HEADER}{settings}\n".encode()
    with ExitStack() as stack:
        try:
            fh = stack.enter_context(open(path, "a+b"))
            fh.seek(0)
            data = fh.read()
            complete = data.rfind(b"\n") + 1
            lines = [
                (number, text)
                for number, line in enumerate(data[:complete].splitlines(), 1)
                if (text := line.decode("ascii", "replace").strip())
            ]
            if not lines and data.strip() and not header.startswith(data):
                raise CheckpointError(
                    f"checkpoint {path} has no header, so the settings it was written "
                    f"with are unknown (this search: {settings}); it holds no complete "
                    f"line, only {data[:60].decode('ascii', 'replace')!r}"
                )
            if lines:
                number, first = lines[0]
                found = first.removeprefix(_CHECKPOINT_HEADER)
                if found == first:
                    raise CheckpointError(
                        f"checkpoint {path} has no header, so the settings it was written "
                        f"with are unknown (this search: {settings}); line {number} is {first!r}"
                    )
                if found != settings:
                    raise CheckpointError(
                        f"checkpoint {path} was written by a search with {found}, "
                        f"this search has {settings}"
                    )
            done = set()
            for number, text in lines[1:]:
                try:
                    d, k = map(decimal_int, text.split())
                except ValueError:
                    raise CheckpointError(
                        f"checkpoint {path}, line {number}: expected 'd k', got {text!r}"
                    ) from None
                done.add((d, k))
            if lines:
                fh.truncate(complete)
            else:
                fh.truncate(0)
                fh.write(header)
                fh.flush()
        except OSError as exc:
            raise CheckpointError(f"cannot use checkpoint {path}: {exc.strerror or exc}") from exc
        stack.pop_all()
    return done, fh


def search(config: SearchConfig, checkpoint: Optional[str] = None) -> Iterator[DistanceMatrix]:
    """All canonical point sets of the configured size and diameter range.

    Iterates the base diameter d over [d_min, d_max] and, per d, every
    admissible characteristic; the base edge carries the diameter, so each
    set is found at exactly one (d, k) key.  With ``checkpoint`` given,
    completed keys are appended to that file and previously completed keys
    are skipped (their results are assumed already consumed); a checkpoint
    that cannot be opened or parsed, or that was written with another size
    or without general position, raises ``CheckpointError`` first.
    """
    shard_index, shard_total = config.shard
    done, log = _open_checkpoint(checkpoint, config) if checkpoint else (set(), None)
    with log or nullcontext():
        counter = 0
        for d in range(config.d_min, config.d_max + 1):
            groups = _candidate_groups(d, config.char_filter, config.target_n)
            for k in sorted(groups):
                key_index = counter
                counter += 1
                if key_index % shard_total != shard_index:
                    continue
                if (d, k) in done:
                    continue
                if groups[k]:  # an empty bucket holds no set, but is a key
                    yield from _clique_stream(d, k, groups[k], config.target_n)
                if log is not None:
                    log.write(b"%d %d\n" % (d, k))
                    log.flush()


def minimum_diameter(
    target_n: int, d_cap: int, char_filter: Optional[CharFilter] = None
) -> Optional[int]:
    """Smallest diameter up to ``d_cap`` admitting a general-position set."""
    if d_cap < 1:
        return None
    filt = char_filter or CharFilter.any_char()
    first = next(search(SearchConfig(target_n, 1, d_cap, filt)), None)
    return None if first is None else first.diameter()

