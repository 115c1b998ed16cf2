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
cached table, so each half is two lookups and a gcd.  The v-halves are
indexed by the key the characteristic filter needs (kb itself for a fixed
k, the part of kb prime to the bound for a divisor filter), and each u
finds its admitted v's with one dict lookup instead of a scan of all
(a, b) pairs.

The clique stage keeps one integer bitset of neighbours per signed
candidate.  Mirroring in the base line keeps distances, so each pair of
raw candidates is tested twice, once with equal and once with opposite
signs of y, for all four of its signed pairs.  With general position
required, an edge is dropped when its two points are collinear with a base
point or concyclic with both, so the clique search tests only triples and
quadruples of chosen points.  k-core pruning removes vertices with fewer
than n - 3 live neighbours.  The search then takes candidates lowest index
first; after each new vertex it keeps the candidates among its neighbours
(a bitset intersection) that lie on no line through it and an earlier
chosen point and on no circle through it and two earlier chosen or base
points, and it stops a branch once the chosen and remaining vertices
cannot reach n - 2.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

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
    _SQF.extend(n // (r * r) for n, r in zip(range(lo, limit + 1), root))
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
    both are read off the square-free table.  The v's are indexed by the key
    of kb that the filter needs, so one lookup per u finds every admitted v:

    * a fixed k keys kb itself and looks up the square-free part of ka*k;
    * a divisor bound B keys the rough part kb // gcd(kb, B).  As ka and kb
      are square-free, k = ka*kb/gcd(ka, kb)^2 holds the primes of exactly
      one of them, so k divides B exactly when ka and kb have the same
      primes outside B, that is, equal rough parts;
    * no restriction gives every kb the same key.

    S is computed for admitted candidates only, as isqrt of the Heron
    product (u^2 - d^2)(d^2 - v^2) divided by k.
    """
    sqf = _spf_sieve(max(3 * d, d + 2 * cap_ab))
    d2 = d * d
    if char_filter.kind == "fixed":
        target = char_filter.value
        v_key, u_key = (lambda kb: kb), (lambda ka: _sqf_mul(ka, target))
    elif char_filter.kind == "divisor":
        bound = char_filter.value
        v_key = u_key = lambda m: m // math.gcd(m, bound)
    else:
        v_key = u_key = lambda m: 1

    # v's by key, split by parity (v = a - b has the parity of u = a + b)
    v_parts = [_sqf_mul(sqf[d - v], sqf[d + v]) for v in range(d)]
    index: dict[int, tuple[list[int], list[int]]] = {}
    for v, kb in enumerate(v_parts):
        index.setdefault(v_key(kb), ([], []))[v & 1].append(v)

    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for u in range(d + 1, 2 * cap_ab + 1):
        ka = _sqf_mul(sqf[u - d], sqf[u + d])
        lists = index.get(u_key(ka))
        if lists is None:
            continue
        vs = lists[u & 1]
        vlim = min(d - 1, u - 2, 2 * cap_ab - u)
        hu = u * u - d2
        for v in vs[: bisect_right(vs, vlim)]:
            k = _sqf_mul(ka, v_parts[v])
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

    A vertex's mirror partner (Y negated) is found by lookup and may be
    absent.  Cliques come out in the order of an ascending index scan; the
    module docstring describes the stages.
    """
    need = config.target_n - 2
    cap = min(d, config.d_max)
    two_d = 2 * d
    x2 = 2 * d * d
    base1, base2 = (0, 0, 0), (x2 * x2, x2, 0)  # lifted (0, 0) and (x2, 0)
    nv = len(verts)
    general = config.require_general_position

    def edge_length(n2: int, base_tests, xq: int, yq: int) -> int:
        """Distance from p to q = (xq, yq) at squared scaled distance ``n2``,
        or 0 when it is not integral, too long, or q meets one of p's
        ``base_tests``."""
        r = math.isqrt(n2)
        if r * r != n2 or r % two_d:
            return 0
        t = r // two_d
        if not 1 <= t <= cap:
            return 0
        if general and not _avoids(base_tests, (xq * xq + k * yq * yq, xq, yq)):
            return 0
        return t

    mirrors: dict[tuple[int, int, int, int], list[tuple[int, bool]]] = {}
    for v, (a, b, x, y) in enumerate(verts):
        mirrors.setdefault((a, b, x, abs(y)), []).append((v, y > 0))
    # Mirror partners lie 2|y|*sqrt(k) apart, irrational unless k is a
    # square, so then a clique holds at most one vertex of each class.
    if (nv if math.isqrt(k) ** 2 == k else len(mirrors)) < need:
        return
    classes = [(x, y, k * y * y, members) for (_, _, x, y), members in mirrors.items()]

    adj = [0] * nv
    dist: dict[tuple[int, int], int] = {}

    def join(ps, qs, same_sign: bool, t: int) -> None:
        for i, up_i in ps:
            for j, up_j in qs:
                if (up_i == up_j) == same_sign and i != j:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                    dist[min(i, j), max(i, j)] = t

    for ci, (x, y, ky, members) in enumerate(classes):
        p = (x * x + ky, x, y)
        # q on one of these is collinear with a base point and p, or
        # concyclic with both base points and p
        base_tests = (_line(base1, p), _line(base2, p), _circle(base1, base2, p))
        # Squared scaled distances from this class to itself and to every
        # later class, with equal and with opposite signs of y (a class and
        # itself with opposite signs: the mirror pair).  Only nonzero
        # perfect squares go on to edge_length.
        later = classes[ci:]
        two_ky = 2 * k * y
        sums = [(x - xq) ** 2 + ky + kyq for xq, _, kyq, _ in later]
        cross = [two_ky * yq for _, yq, _, _ in later]
        for same_sign, n2s in (
            (True, [s - c for s, c in zip(sums, cross)]),
            (False, [s + c for s, c in zip(sums, cross)]),
        ):
            for j in [j for j, n2 in enumerate(n2s) if n2 and math.isqrt(n2) ** 2 == n2]:
                xq, yq, _, others = later[j]
                t = edge_length(n2s[j], base_tests, xq, yq if same_sign else -yq)
                if t:
                    join(members, others, same_sign, t)

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

    seen: set[tuple[tuple[int, ...], ...]] = set()
    chosen: list[int] = []

    def emit() -> Optional[DistanceMatrix]:
        n = config.target_n
        rows = [[0] * n for _ in range(n)]
        rows[0][1] = rows[1][0] = d
        for ci, vi in enumerate(chosen):
            a, b, _, _ = verts[vi]
            rows[0][ci + 2] = rows[ci + 2][0] = a
            rows[1][ci + 2] = rows[ci + 2][1] = b
        for ci, vi in enumerate(chosen):
            for cj in range(ci + 1, len(chosen)):
                t = dist[(vi, chosen[cj])]
                rows[ci + 2][cj + 2] = rows[cj + 2][ci + 2] = t
        canon, _ = canonical_form(DistanceMatrix(rows))
        if canon.rows in seen:
            return None
        seen.add(canon.rows)
        return canon

    def narrow(cands: int) -> int:
        """The candidates in general position with all chosen vertices.

        ``cands`` already passed every test without the last chosen vertex.
        """
        *earlier, v = chosen
        if not general or not earlier:
            return cands
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
        return kept

    def dfs(cands: int) -> Iterator[DistanceMatrix]:
        while len(chosen) + cands.bit_count() >= need:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            chosen.append(v)
            if len(chosen) == need:
                out = emit()
                if out is not None:
                    yield out
            else:
                yield from dfs(narrow(cands & adj[v]))
            chosen.pop()

    yield from dfs(alive)


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
    base-pair swaps) are emitted once.
    """
    if not candidates:
        return
    ks = {c.k for c in candidates}
    if len(ks) != 1 or any(c.d_base != base_d for c in candidates):
        raise ValueError("candidates must share one base and characteristic")
    k = ks.pop()
    verts = []
    for c in candidates:
        x2d = c.x * 2 * base_d
        y2d = c.y_coeff * 2 * base_d
        if x2d.denominator != 1 or y2d.denominator != 1:
            raise ValueError(f"candidate {c} is not valid over base {base_d}")
        verts.append((c.a, c.b, int(x2d), int(y2d)))
    verts.sort()
    yield from _clique_stream(base_d, k, verts, config)


# ---------------------------------------------------------------------------
# top-level search
# ---------------------------------------------------------------------------


class CheckpointError(Exception):
    """A checkpoint file that cannot be opened, read or parsed."""


def _load_checkpoint(path) -> set[tuple[int, int]]:
    """Completed (d, k) keys of a checkpoint file, created empty when missing.

    A key counts only once its line ends in a newline.  An unterminated
    last line is a write cut short: it is cut off the file, so that its key
    runs again and the next append starts a line of its own.
    """
    done = set()
    try:
        with open(path, "a+b") as fh:
            fh.seek(0)
            data = fh.read()
            complete = data.rfind(b"\n") + 1
            for number, line in enumerate(data[:complete].splitlines(), 1):
                if not line.strip():
                    continue
                text = line.decode("ascii", "replace")
                try:
                    d, k = map(int, text.split())
                except ValueError:
                    raise CheckpointError(
                        f"checkpoint {path}, line {number}: expected 'd k', got {text!r}"
                    ) from None
                done.add((d, k))
            if complete < len(data):
                fh.truncate(complete)
    except OSError as exc:
        raise CheckpointError(f"cannot use checkpoint {path}: {exc.strerror or exc}") from exc
    return done


def search(config: SearchConfig, checkpoint: Optional[str] = None) -> Iterator[DistanceMatrix]:
    """All canonical point sets of the configured size and diameter range.

    Iterates the base diameter d over [d_min, d_max] and, per d, every
    admissible characteristic; the base edge carries the diameter, so each
    set is found at exactly one (d, k) key.  With ``checkpoint`` given,
    completed keys are appended to that file and previously completed keys
    are skipped (their results are assumed already consumed); a checkpoint
    that cannot be opened or parsed raises ``CheckpointError`` first.
    """
    filt = config.effective_filter()
    shard_index, shard_total = config.shard
    done = _load_checkpoint(checkpoint) if checkpoint else set()
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
            if checkpoint:
                with open(checkpoint, "a") as fh:
                    fh.write(f"{d} {k}\n")


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


def partition(config: SearchConfig, total_shards: int) -> list[SearchConfig]:
    """Split a search into independent shards over the (d, k) outer loop."""
    if total_shards < 1:
        raise ValueError(f"total_shards must be >= 1, got {total_shards}")
    return [replace(config, shard=(i, total_shards)) for i in range(total_shards)]
