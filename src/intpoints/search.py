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
parts of u - d, u + d, d - v and d + v (all at most 3d) come from one
cached table, so each half is two lookups and a gcd.  Both halves get the
key the characteristic filter needs (kb itself for a fixed k, the part of
kb prime to the bound for a divisor filter), and the v's are indexed by it
as a semi-join: only keys that some u looks up are indexed, and each such
u finds its admitted v's with one dict lookup instead of a scan of all
(a, b) pairs.

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
(2d*t)^2, so a divisibility test by 4d^2 screens the pairs before the
exact square root of the quotient t^2.  An edge is dropped when its two
points are collinear with a base point or concyclic with both, so the
clique search tests only triples and quadruples of chosen points.  These
are the kernel's three base-point tests (``pointset._line`` and
``pointset._circle``), which the edge build writes out in closed form, one
integer cross-multiplication each, while the clique search and ``verify``
call the kernel.  k-core pruning removes vertices with fewer than n - 3
live neighbours.  The depth-first search then runs on an explicit stack of candidate bitsets,
one per depth, and takes candidates lowest index first; after each new
vertex it keeps the candidates among
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

Most keys at n = 4 are decided before any of this.  Unless k is a square,
the two vertices of one class lie an irrational 2S*sqrt(k)/(2d) apart, so a
clique holds at most one of them.  A key of one class c and its bisector
image c' then holds a 4-point set only through an edge from c to c'.
With opposite signs of y, (0, 0), p, (d, 0) and p' form a parallelogram
whose diagonals are the base and the edge, so t^2 = 2a^2 + 2b^2 - d^2,
and the key stops at once unless t is an integer of at most d.  With
equal signs they form an isosceles trapezoid, which is cyclic, so the
base-circle test drops that edge.  At n = 3 a single vertex is a set, so
the rule applies at n = 4 only.

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
from array import array
from bisect import bisect_right
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import floordiv, mul
from typing import BinaryIO, Iterator, Optional

from .arith import decimal_int, factorize, squarefree_part
from .pointset import DistanceMatrix, _avoids, _circle, _line, canonical_form

# ---------------------------------------------------------------------------
# square-free table, shared by all searches in the process
# ---------------------------------------------------------------------------

_SQF = array("q", [0, 1])


def _spf_sieve(limit: int) -> array:
    """Square-free part of every integer up to ``limit``, as ``table[n]``.

    Builds a table of square-free parts, not of smallest prime factors.  The
    table is a process-wide cache of machine ints, grown in place: the new
    entries are sieved by every square i*i (the last, largest i that divides
    n gives n's largest square divisor).
    """
    lo = len(_SQF)
    if limit < lo:
        return _SQF
    root = array("q", [1]) * (limit + 1 - lo)  # largest i with i*i | lo + j
    for i in range(2, math.isqrt(limit) + 1):
        first = -lo % (i * i)
        root[first :: i * i] = array("q", [i]) * len(range(first, len(root), i * i))
    _SQF.extend(map(floordiv, range(lo, limit + 1), map(mul, root, root)))
    return _SQF


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharFilter:
    """Characteristic restriction: everything, one value, or divisors of one."""

    kind: str = "any"  # "any" | "fixed" | "divisor"
    value: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("any", "fixed", "divisor"):
            raise ValueError(f"unknown characteristic filter kind {self.kind!r}")
        if self.kind == "any":
            if self.value is not None:
                raise ValueError("'any' filter takes no value")
        else:
            if self.value is None or self.value < 1:
                raise ValueError(f"filter value must be a positive integer, got {self.value}")
            if squarefree_part(self.value) != self.value:
                raise ValueError(f"filter value {self.value} is not square-free")

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


def _candidate_groups(
    d: int, char_filter: CharFilter
) -> dict[int, list[tuple[int, int, int, int]]]:
    """Raw candidates over base (0,0)-(d,0), grouped by characteristic.

    Each entry is ``(a, b, X, S)`` in coordinates scaled by 2d: the point is
    ``(X/(2d), (S/(2d))*sqrt(k))`` before sign choice, at distances a, b <= d
    from the base points, so that the base edge is the diameter.  Every
    bucket is sorted and closed under the reflection (a, b) -> (b, a).

    With u = a + b and v = a - b the characteristic k is the square-free
    part of ka*kb, where ka is that of u^2 - d^2 and kb that of d^2 - v^2;
    both are read off the square-free table.  Each kb and each ka is given
    the key of the filter, and a v and a u combine into an admitted
    candidate exactly when their keys are equal:

    * a fixed k keys kb itself and ka by the square-free part of ka*k;
    * a divisor bound B keys both by the rough part m // gcd(m, B).  As ka
      and kb are square-free, k = ka*kb/gcd(ka, kb)^2 holds the primes of
      exactly one of them, so k divides B exactly when ka and kb have the
      same primes outside B, that is, equal rough parts;
    * no restriction gives every kb and ka the same key.

    The pairing is a semi-join: only the v's whose key some u has are
    indexed, and only the u's whose key is in that index are walked, one
    lookup each.  S is computed for admitted candidates only, as isqrt of
    the Heron product (u^2 - d^2)(d^2 - v^2) divided by k.
    """
    sqf = _spf_sieve(3 * d)
    d2 = d * d
    # square-free parts of d^2 - v^2 for v = 0..d-1 and of u^2 - d^2 for
    # u = d+1..2d, each from the parts of its two factors
    v_parts = [p * q // math.gcd(p, q) ** 2 for p, q in zip(sqf[d:0:-1], sqf[d : 2 * d])]
    u_parts = [
        p * q // math.gcd(p, q) ** 2 for p, q in zip(sqf[1 : d + 1], sqf[2 * d + 1 : 3 * d + 1])
    ]
    if char_filter.kind == "fixed":
        target = char_filter.value
        v_keys = v_parts
        u_keys = [ka * target // math.gcd(ka, target) ** 2 for ka in u_parts]
    elif char_filter.kind == "divisor":
        bound = char_filter.value
        v_keys = [kb // math.gcd(kb, bound) for kb in v_parts]
        u_keys = [ka // math.gcd(ka, bound) for ka in u_parts]
    else:
        v_keys = [1] * len(v_parts)
        u_keys = [1] * len(u_parts)

    # the looked-up v's by key, split by parity (v = a - b has the parity
    # of u = a + b)
    wanted = set(u_keys)
    index: dict[int, tuple[list[int], list[int]]] = {}
    for v in [v for v, key in enumerate(v_keys) if key in wanted]:
        index.setdefault(v_keys[v], ([], []))[v & 1].append(v)

    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for i in [i for i, key in enumerate(u_keys) if key in index]:
        u, ka = d + 1 + i, u_parts[i]
        vs = index[u_keys[i]][u & 1]
        hu = u * u - d2
        for v in vs[: bisect_right(vs, 2 * d - u)]:  # a, b <= d
            kb = v_parts[v]
            k = ka * kb // math.gcd(ka, kb) ** 2
            s = math.isqrt(hu * (d2 - v * v) // k)
            a, b = (u + v) // 2, (u - v) // 2
            bucket = groups.setdefault(k, [])
            bucket.append((a, b, u * v + d2, s))
            if v:
                bucket.append((b, a, d2 - u * v, s))

    for bucket in groups.values():
        bucket.sort()
    return groups


# ---------------------------------------------------------------------------
# clique extension
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _odd_prime_powers(d: int) -> tuple[tuple[int, int, int], ...]:
    """(p, p^e, p^2e) for each odd prime p with p^e || d, in increasing order.

    Cached for one d: a search takes the keys of each d in a row.
    """
    return tuple((p, p**e, p ** (2 * e)) for p, e in sorted(factorize(d).items()) if p > 2)


def _sign_groups(
    d: int, k: int, classes: list[tuple[int, int, int, int]], image_of: list[int]
) -> list[tuple[tuple[int, int, int, int, int], tuple[list, list]]]:
    """The reflection pairs of ``classes`` grouped by their signs at the odd
    primes of d, as ((care, zero, wild, none, bits), (lows, highs)) in order
    of first use.

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
    """
    x2 = 2 * d * d
    # each prime where some class has a sign, with that first class's X'/S'
    primes = []
    for p, pe, pe2 in _odd_prime_powers(d):
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
    return list(groups.items())


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
    joins the images.  The count of pairs tested is that of the squared
    distances formed, one per orbit and sign relation.
    """
    edge_unit = 4 * d * d
    x2 = 2 * d * d
    adj = [0] * (2 * len(classes))
    pairs = 0
    blocks = _sign_groups(d, k, classes, image_of)
    for gi, ((care, zero, wild, none, bits), (lows, highs)) in enumerate(blocks):
        same: list = []
        opposite: list = []
        for (care2, zero2, wild2, none2, bits2), (lows2, highs2) in blocks[gi + 1 :]:
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
            equal = lows[r + 1 :] + same
            flipped = highs[r:] + opposite
            if not care:
                equal += highs[r:]
                flipped += lows[r:]  # the class itself: its mirror pair
            # Squared scaled distances to the classes tested with equal
            # (flip 0) and with opposite (flip 1) signs of y; no two of the
            # vertices coincide.  An edge of length t has n2 = (2d*t)^2, so
            # only multiples of 4d^2 go on, and the exact root is taken of
            # the quotient t^2.
            two_ky = 2 * k * y
            # the row's constants of the three base tests below
            xr = x2 - x
            power = x2 * x - x * x - ky
            for flip, cross, targets in ((0, -two_ky, equal), (1, two_ky, flipped)):
                n2s = [(x - xq) ** 2 + ky + kyq + cross * yq for xq, yq, kyq, _ in targets]
                pairs += len(n2s)
                for j in [j for j, n2 in enumerate(n2s) if n2 % edge_unit == 0]:
                    t2 = n2s[j] // edge_unit
                    t = math.isqrt(t2)
                    if t * t != t2 or t > d:
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
    are opposite: the other pairs fail the 4d^2 screen.  The screen, the exact root, the base tests
    and the vertex numbering are those of a test of every pair, so the edges
    are too.

    The depth-first search runs on an explicit stack of candidate bitsets,
    lowest index first, so cliques come out in the order of an ascending
    index scan.  A key whose k-core is empty returns before the search is
    set up.  At n = 4 with k not a square, a key of one class pair returns
    before any set-up when the parallelogram diagonal does not have
    integral length at most d: a clique holds one vertex of each class, and
    the diagonal is the only edge between them that the base-circle test
    keeps (module docstring).  Of each orbit of cliques under
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
    square = math.isqrt(k) ** 2 == k
    # Mirror partners lie 2S*sqrt(k) apart, irrational unless k is a
    # square, so then a clique holds at most one vertex of each class.
    if (nv if square else len(classes)) < need:
        return
    # So at n = 4 a key of one class c and its image c' needs an edge
    # c-c'.  With opposite signs of y, (0, 0), p, (d, 0), p' form a
    # parallelogram with diagonals d and t; with equal signs, a cyclic
    # trapezoid, whose edge the base-circle test drops.
    if need == 2 and not square and len(classes) == 2 and classes[0][:2] == classes[1][1::-1]:
        a, b = classes[0][:2]
        t2 = 2 * a * a + 2 * b * b - d * d
        if math.isqrt(t2) ** 2 != t2 or t2 > d * d:
            return

    # The reflection R in the perpendicular bisector of the base maps class
    # (a, b, X, S) to (b, a, 2d^2 - X, S): it swaps the base points and
    # keeps y signs and distances, so two classes are joined exactly when
    # their images are.  `image_of` gives the index of each class's image.
    position = {(a, b): i for i, (a, b, _, _) in enumerate(classes)}
    image_of = [position[b, a] for a, b, _, _ in classes]
    adj, _ = _adjacency(d, k, classes, image_of)

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
            canon, _ = canonical_form(DistanceMatrix(rows))
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
            groups = _candidate_groups(d, config.char_filter)
            for k in sorted(groups):
                key_index = counter
                counter += 1
                if key_index % shard_total != shard_index:
                    continue
                if (d, k) in done:
                    continue
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

