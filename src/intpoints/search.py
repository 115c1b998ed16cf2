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
parts of u - d, u + d, d - v and d + v (all at most 3*d_max) come from one
cached table, so each half is two lookups and a gcd.  Both halves get the
key the characteristic filter needs (kb itself for a fixed k, the part of
kb prime to the bound for a divisor filter), and the v's are indexed by it
as a semi-join: only keys that some u looks up are indexed, and each such
u finds its admitted v's with one dict lookup instead of a scan of all
(a, b) pairs.

The clique stage keeps one integer bitset of neighbours per signed
candidate.  Mirroring in the base line keeps distances, so the two signs
of a raw candidate form one class, and a pair of classes is tested once
with equal and once with opposite signs of y, for all four of its signed
pairs.  Reflecting in the perpendicular bisector of the base maps class
(a, b) to (b, a); it swaps the base points and keeps distances and signs,
so only one pair of each orbit under it is tested and an edge found there
joins the reflected pair too, which halves the tests.  An edge of length t
has squared scaled length (2d*t)^2, so a divisibility test by 4d^2 screens
the pairs before the exact square root of the quotient t^2.  With general
position required, an edge is dropped when its two points are collinear
with a base point or concyclic with both, so the clique search tests only
triples and quadruples of chosen points.  k-core pruning removes vertices
with fewer than n - 3 live neighbours.  The depth-first search then runs on an
explicit stack of candidate bitsets, one per depth, and takes candidates
lowest index first; after each new vertex it keeps the candidates among
its neighbours (a bitset intersection) that lie on no line through it and
an earlier chosen point and on no circle through it and two earlier chosen
or base points, and it drops a level once the chosen and remaining
vertices cannot reach n - 2.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from operator import floordiv, mul
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence

from .arith import squarefree_part
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


def _sqf_mul(m: int, n: int) -> int:
    """Square-free part of m*n for square-free m and n."""
    g = math.gcd(m, n)
    return (m // g) * (n // g)


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
        text = text.strip()
        if text == "any":
            return CharFilter.any_char()
        if text.startswith("div:"):
            return CharFilter.divisor_of(int(text[4:]))
        return CharFilter.fixed(int(text))

    def admits(self, k: int) -> bool:
        if self.kind == "any":
            return True
        if self.kind == "fixed":
            return k == self.value
        return self.value % k == 0

    def __str__(self):
        if self.kind == "any":
            return "any"
        if self.kind == "fixed":
            return str(self.value)
        return f"div:{self.value}"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run."""

    target_n: int
    d_min: int
    d_max: int
    char_filter: CharFilter = field(default_factory=CharFilter.any_char)
    require_general_position: bool = True
    cluster_mode: bool = False
    shard: tuple[int, int] = (0, 1)

    def __post_init__(self):
        if self.target_n < 3:
            raise ValueError(f"target size must be >= 3, got {self.target_n}")
        if not (1 <= self.d_min <= self.d_max):
            raise ValueError(f"need 1 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        index, total = self.shard
        if total < 1 or not (0 <= index < total):
            raise ValueError(f"invalid shard {self.shard}")
        if self.cluster_mode and self.char_filter.kind == "fixed" and self.char_filter.value != 1:
            raise ValueError(
                f"cluster mode needs characteristic 1, conflicting filter {self.char_filter}"
            )

    def effective_filter(self) -> CharFilter:
        """Cluster mode pins the characteristic to 1 (integral-coordinate sets)."""
        return CharFilter.fixed(1) if self.cluster_mode else self.char_filter


@dataclass(frozen=True)
class CandidatePoint:
    """A point at integral distances from both base points.

    Lies at ``(x, y_coeff*sqrt(k))`` with distance ``a`` to p1 = (0,0) and
    ``b`` to p2 = (d_base,0); the triangle (d_base, a, b) is strict with
    characteristic exactly ``k``, so ``y_coeff != 0``.
    """

    d_base: int
    k: int
    a: int
    b: int
    x: Fraction
    y_coeff: Fraction

    @property
    def sign(self) -> int:
        return 1 if self.y_coeff > 0 else -1


# ---------------------------------------------------------------------------
# triangle and candidate enumeration
# ---------------------------------------------------------------------------


def enumerate_triangles(
    d_max: int, char_filter: Optional[CharFilter] = None
) -> Iterator[tuple[int, int, int]]:
    """All integer triangles a >= b >= c with a <= d_max, strict inequalities.

    Streamed in lexicographically decreasing (a, b, c) order, optionally
    filtered by characteristic.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    filt = char_filter or CharFilter.any_char()
    sqf = _spf_sieve(3 * d_max) if filt.kind != "any" else None
    for a in range(d_max, 0, -1):
        for b in range(a, 0, -1):
            lo = max(1, a - b + 1)
            for c in range(b, lo - 1, -1):
                if sqf is not None:
                    k = _sqf_mul(
                        _sqf_mul(sqf[a + b + c], sqf[a + b - c]),
                        _sqf_mul(sqf[a - b + c], sqf[b + c - a]),
                    )
                    if not filt.admits(k):
                        continue
                yield a, b, c


def _candidate_groups(
    d: int, cap_ab: int, char_filter: CharFilter
) -> dict[int, list[tuple[int, int, int, int]]]:
    """Raw candidates over base (0,0)-(d,0), grouped by characteristic.

    Each entry is ``(a, b, X, S)`` in coordinates scaled by 2d: the point is
    ``(X/(2d), (S/(2d))*sqrt(k))`` before sign choice.  ``cap_ab`` bounds the
    distances a, b to the base points.  Every bucket is sorted.

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
    sqf = _spf_sieve(max(3 * d, d + 2 * cap_ab))
    d2 = d * d
    u_hi = 2 * cap_ab
    # square-free parts of d^2 - v^2 for v = 0..d-1 and of u^2 - d^2 for
    # u = d+1..2*cap_ab, each from the parts of its two factors
    v_parts = [p * q // math.gcd(p, q) ** 2 for p, q in zip(sqf[d:0:-1], sqf[d : 2 * d])]
    u_parts = [
        p * q // math.gcd(p, q) ** 2
        for p, q in zip(sqf[1 : u_hi - d + 1], sqf[2 * d + 1 : u_hi + d + 1])
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
        vlim = min(d - 1, u - 2, u_hi - u)
        hu = u * u - d2
        for v in vs[: bisect_right(vs, vlim)]:
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


def candidate_points(d_base: int, k: int, d_max: int) -> list[CandidatePoint]:
    """All candidate points with characteristic exactly ``k`` over the base.

    Both y signs are emitted; points on the base line cannot occur because
    the base triangle is strict.
    """
    if not (1 <= d_base <= d_max):
        raise ValueError(f"need 1 <= d_base <= d_max, got {d_base}, {d_max}")
    if k < 1 or squarefree_part(k) != k:
        raise ValueError(f"characteristic must be square-free positive, got {k}")
    raw = _candidate_groups(d_base, d_max, CharFilter.fixed(k)).get(k, [])
    out = []
    for a, b, x2d, s in raw:
        x = Fraction(x2d, 2 * d_base)
        q = Fraction(s, 2 * d_base)
        out.append(CandidatePoint(d_base, k, a, b, x, -q))
        out.append(CandidatePoint(d_base, k, a, b, x, q))
    out.sort(key=lambda c: (c.a, c.b, c.y_coeff))
    return out


def integral_pair_check(p: CandidatePoint, q: CandidatePoint) -> Optional[int]:
    """Integer distance between two candidates, or None when not integral."""
    if p.d_base != q.d_base or p.k != q.k:
        raise ValueError("candidates come from different bases or characteristics")
    sq = (p.x - q.x) ** 2 + p.k * (p.y_coeff - q.y_coeff) ** 2
    if sq.denominator != 1:
        return None
    root = math.isqrt(sq.numerator)
    return root if root * root == sq.numerator else None


# ---------------------------------------------------------------------------
# clique extension
# ---------------------------------------------------------------------------


def _clique_stream(
    d: int,
    k: int,
    verts: list[tuple[int, int, int, int]],
    config: SearchConfig,
) -> Iterator[DistanceMatrix]:
    """Canonical point sets from cliques over signed scaled candidates.

    ``verts`` holds (a, b, X, Y) with X = 2d*x and Y = 2d*y_coeff.  Pairwise
    distances are capped at min(d, config.d_max): the base edge must stay
    the diameter, so any longer pair belongs to a different base.

    A vertex's mirror partner (Y negated) and its reflection in the
    perpendicular bisector of the base are found by lookup and may be
    absent.  The depth-first search runs on an explicit stack of candidate
    bitsets, lowest index first, so cliques come out in the order of an
    ascending index scan.  The body is one generator with no nested
    function: it holds no reference cycle, and a finished or closed stream
    leaves nothing for the cyclic collector.  The module docstring
    describes the stages.
    """
    need = config.target_n - 2
    cap = min(d, config.d_max)
    edge_unit = 4 * d * d
    x2 = 2 * d * d
    base1, base2 = (0, 0, 0), (x2 * x2, x2, 0)  # lifted (0, 0) and (x2, 0)
    nv = len(verts)
    general = config.require_general_position

    mirrors: dict[tuple[int, int, int, int], list[tuple[int, bool]]] = {}
    for v, (a, b, x, y) in enumerate(verts):
        mirrors.setdefault((a, b, x, abs(y)), []).append((v, y > 0))
    # Mirror partners lie 2|y|*sqrt(k) apart, irrational unless k is a
    # square, so then a clique holds at most one vertex of each class.
    if (nv if math.isqrt(k) ** 2 == k else len(mirrors)) < need:
        return

    # The reflection R in the perpendicular bisector of the base maps class
    # (a, b, X, |Y|) to (b, a, x2 - X, |Y|): it swaps the base points and
    # keeps y signs and distances, so two classes are joined exactly when
    # their images are.  `join` picks the member pairs by their signs, so an
    # image whose members have other signs than its partner's is paired all
    # the same.  `seq` holds each class next to its image, then the classes
    # that R fixes, then those whose image is absent (only extend_cliques
    # input has them).  An entry is (X, |Y|, k*Y^2, members, the image's
    # members or None).
    pairs, fixed, unpaired = [], [], []
    for key, members in mirrors.items():
        a, b, x, y = key
        image_key = (b, a, x2 - x, y)
        image = mirrors.get(image_key)
        entry = (x, y, k * y * y, members, image)
        if image_key == key:
            fixed.append(entry)
        elif image is None:
            unpaired.append(entry)
        elif key < image_key:
            pairs += [entry, (x2 - x, y, k * y * y, image, members)]
    seq = pairs + fixed + unpaired

    adj = [0] * nv
    dist: dict[tuple[int, int], int] = {}

    # One row per R orbit of classes: the first class of each pair, each
    # fixed and each unpaired class.  A row tests the classes after it in
    # `seq`, so each orbit of class pairs is tested once, and an edge
    # between two classes with images also joins the images.  An unpaired
    # class has no image to stand for it, so its row also tests the second
    # class of every pair.
    for ci in chain(range(0, len(pairs), 2), range(len(pairs), len(seq))):
        x, y, ky, members, image = seq[ci]
        later = seq[ci:]
        if ci >= len(pairs) + len(fixed):
            later += pairs[1::2]
        mirror = image if ci < len(pairs) else None
        # Squared scaled distances from this class to every class in
        # `later`, with equal and with opposite signs of y (a class and
        # itself with opposite signs: the mirror pair).  An edge of length
        # t has n2 = (2d*t)^2, so only nonzero multiples of 4d^2 go on, and
        # the exact root is taken of the quotient t^2.
        two_ky = 2 * k * y
        sums = [(x - xq) ** 2 + ky + kyq for xq, _, kyq, _, _ in later]
        cross = [two_ky * yq for _, yq, _, _, _ in later]
        base_tests = None
        for same_sign, n2s in (
            (True, [s - c for s, c in zip(sums, cross)]),
            (False, [s + c for s, c in zip(sums, cross)]),
        ):
            for j in [j for j, n2 in enumerate(n2s) if n2 % edge_unit == 0 and n2]:
                t2 = n2s[j] // edge_unit
                t = math.isqrt(t2)
                if t * t != t2 or t > cap:
                    continue
                xq, yq, _, others, others_image = later[j]
                if general:
                    if base_tests is None:
                        # q on one of these is collinear with a base point
                        # and p, or concyclic with both base points and p
                        p = (x * x + ky, x, y)
                        base_tests = (_line(base1, p), _line(base2, p), _circle(base1, base2, p))
                    yq = yq if same_sign else -yq
                    if not _avoids(base_tests, (xq * xq + k * yq * yq, xq, yq)):
                        continue
                # the edge joins the member pairs with the sign relation
                # tested, in this class pair and in its image
                for ps, qs in ((members, others), (mirror, others_image)):
                    if ps is None or qs is None:
                        continue
                    for vp, up_p in ps:
                        for vq, up_q in qs:
                            if (up_p == up_q) == same_sign and vp != vq:
                                adj[vp] |= 1 << vq
                                adj[vq] |= 1 << vp
                                dist[min(vp, vq), max(vp, vq)] = t

    lifts = [(x * x + k * y * y, x, y) for _, _, x, y in verts]

    # k-core: every vertex of a clique on `need` vertices has `need - 1`
    # neighbours in it.  A vertex on the base line is collinear with the
    # base points.
    alive = sum(1 << v for v in range(nv) if verts[v][3] or not general)
    shrinking = True
    while shrinking:
        shrinking = False
        for v in range(nv):
            if alive >> v & 1 and (adj[v] & alive).bit_count() < need - 1:
                alive ^= 1 << v
                shrinking = True

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
        chosen.append(v)
        if len(chosen) == need:
            n = config.target_n
            rows = [[0] * n for _ in range(n)]
            rows[0][1] = rows[1][0] = d
            for ci, vi in enumerate(chosen):
                a, b, _, _ = verts[vi]
                rows[0][ci + 2] = rows[ci + 2][0] = a
                rows[1][ci + 2] = rows[ci + 2][1] = b
                for cj in range(ci + 1, need):
                    t = dist[(vi, chosen[cj])]
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
        if general and len(chosen) > 1:
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


def _signed(raw: Iterable[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    verts = []
    for a, b, x2d, s in raw:
        verts.append((a, b, x2d, -s))
        verts.append((a, b, x2d, s))
    verts.sort()
    return verts


def extend_cliques(
    candidates: Sequence[CandidatePoint], base_d: int, config: SearchConfig
) -> Iterator[DistanceMatrix]:
    """Grow candidate cliques over the base edge into full point sets.

    Every emitted matrix has config.target_n points, passes the general
    position constraints, and is canonical; duplicates (mirror images,
    base-pair swaps) are emitted once.  A candidate whose coordinates are
    not at distances ``a`` and ``b`` from the base points raises
    ``ValueError``.
    """
    if not candidates:
        return
    ks = {c.k for c in candidates}
    if len(ks) != 1 or any(c.d_base != base_d for c in candidates):
        raise ValueError("candidates must share one base and characteristic")
    k = ks.pop()
    x2 = 2 * base_d * base_d
    verts = []
    for c in candidates:
        x2d = c.x * 2 * base_d
        y2d = c.y_coeff * 2 * base_d
        if x2d.denominator != 1 or y2d.denominator != 1:
            raise ValueError(f"candidate {c} is not valid over base {base_d}")
        x, y = int(x2d), int(y2d)
        # scaled by 2d, the distances to (0, 0) and (d, 0) are a and b
        ky2 = k * y * y
        if x * x + ky2 != (2 * base_d * c.a) ** 2 or (x2 - x) ** 2 + ky2 != (2 * base_d * c.b) ** 2:
            raise ValueError(f"candidate {c} is not at distances a, b from the base points")
        verts.append((c.a, c.b, x, y))
    verts.sort()
    yield from _clique_stream(base_d, k, verts, config)


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
    runs again and the next append starts a line of its own.
    """
    # A key's records depend on these settings alone: the characteristic
    # filter, cluster mode and shard only choose keys, so a resume may
    # change them.
    general = "on" if config.require_general_position else "off"
    settings = f"n={config.target_n} general_position={general}"
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
                    d, k = map(int, text.split())
                except ValueError:
                    raise CheckpointError(
                        f"checkpoint {path}, line {number}: expected 'd k', got {text!r}"
                    ) from None
                done.add((d, k))
            if lines:
                fh.truncate(complete)
            else:
                fh.truncate(0)
                fh.write(f"{_CHECKPOINT_HEADER}{settings}\n".encode())
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
    or general-position setting, raises ``CheckpointError`` first.
    """
    filt = config.effective_filter()
    shard_index, shard_total = config.shard
    done, log = _open_checkpoint(checkpoint, config) if checkpoint else (set(), None)
    with log or nullcontext():
        counter = 0
        for d in range(config.d_min, config.d_max + 1):
            groups = _candidate_groups(d, d, filt)
            for k in sorted(groups):
                key_index = counter
                counter += 1
                if key_index % shard_total != shard_index:
                    continue
                if (d, k) in done:
                    continue
                yield from _clique_stream(d, k, _signed(groups[k]), config)
                if log is not None:
                    log.write(b"%d %d\n" % (d, k))
                    log.flush()


def minimum_diameter(
    target_n: int, d_cap: int, char_filter: Optional[CharFilter] = None
) -> Optional[int]:
    """Smallest diameter up to ``d_cap`` admitting a general-position set."""
    filt = char_filter or CharFilter.any_char()
    for d in range(1, d_cap + 1):
        cfg = SearchConfig(target_n=target_n, d_min=d, d_max=d, char_filter=filt)
        for _ in search(cfg):
            return d
    return None

