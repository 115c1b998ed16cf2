"""Distance matrices and exact plane geometry of integral point sets.

A plane integral point set is a finite set of points with pairwise
integral distances; it is in *general position* when no three points are
collinear and no four lie on a common circle.  This module provides the
distance-matrix representation, the square-free characteristic invariant,
lexicographic canonical forms, exact planar embedding over Q(sqrt(k)),
the integer line/circle kernel that both the search and ``verify`` use,
and a full verification report for candidate matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import index
from typing import Iterable, Optional, Sequence

from .arith import decimal_int, squarefree_part


class PointSetError(Exception):
    """Base class for geometric failures in this package."""


class InvalidDistanceMatrix(PointSetError):
    pass


class NotATriangle(PointSetError):
    """Side lengths violate a triangle inequality (negative defect)."""


class DegenerateTriangle(PointSetError):
    """Side lengths satisfy a triangle inequality with equality."""


class NotATriple(PointSetError):
    """Side lengths cannot come from three points of a metric space."""


class NotRealizable(PointSetError):
    """The distance matrix has no exact embedding in the plane."""


class CollinearBase(NotRealizable):
    """A point fell on the line through the first two points."""


class NonIntegralDistance(PointSetError):
    def __init__(self, i: int, j: int, squared: Fraction):
        super().__init__(f"distance between points {i + 1} and {j + 1} is not an integer (squared: {squared})")
        self.pair = (i, j)
        self.squared = squared


class CoincidentPoints(PointSetError):
    def __init__(self, i: int, j: int):
        super().__init__(f"points {i + 1} and {j + 1} coincide")
        self.pair = (i, j)


class CharacteristicMismatch(PointSetError):
    def __init__(self, tri_a, char_a, tri_b, char_b):
        super().__init__(
            f"triangle {tuple(x + 1 for x in tri_a)} has characteristic {char_a} "
            f"but triangle {tuple(x + 1 for x in tri_b)} has {char_b}"
        )
        self.witnesses = ((tri_a, char_a), (tri_b, char_b))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of pairwise integer distances, zero diagonal."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        # index(), not int(): a float or a string is no integer distance;
        # nor is a bool, which index() would turn into 0 or 1
        try:
            rows = [tuple(r) for r in rows]
            if any(bool in map(type, r) for r in rows):
                raise TypeError("a bool is not a distance")
            rows = tuple(tuple(map(index, r)) for r in rows)
        except TypeError as exc:
            raise InvalidDistanceMatrix(f"not a matrix of integers: {exc}") from None
        object.__setattr__(self, "rows", rows)
        check_matrix_shape(self.rows)

    @classmethod
    def _of_valid(cls, rows: tuple[tuple[int, ...], ...]) -> "DistanceMatrix":
        """The matrix of ``rows``, tuples of ints that are known to pass
        ``check_matrix_shape``: a relabeling of a matrix, or the rows the
        clique search builds from a set's distances.  Nothing is checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def diameter(self) -> int:
        return max((x for row in self.rows for x in row), default=0)

    def permuted(self, perm: Sequence[int]) -> "DistanceMatrix":
        """Relabeled copy: new point i is old point perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm}")
        rows = self.rows
        return DistanceMatrix._of_valid(tuple(tuple(rows[pi][pj] for pj in perm) for pi in perm))


def check_matrix_shape(rows: Sequence[Sequence[int]]) -> None:
    """Raise InvalidDistanceMatrix unless rows form a valid distance matrix."""
    n = len(rows)
    if n < 1:
        raise InvalidDistanceMatrix("empty matrix")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidDistanceMatrix(f"row {i + 1} has {len(row)} entries, expected {n}")
        if row[i] != 0:
            raise InvalidDistanceMatrix(f"nonzero diagonal entry at position {i + 1}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise InvalidDistanceMatrix(f"asymmetric entries at ({i + 1},{j + 1})")
            if rows[i][j] < 1:
                raise InvalidDistanceMatrix(f"off-diagonal entry at ({i + 1},{j + 1}) is {rows[i][j]}, must be >= 1")


def parse_matrix_text(text: str) -> DistanceMatrix:
    """Parse the exchange format: first line n, then n full symmetric rows.

    Every token is a plain ASCII decimal integer (``arith.decimal_int``).
    """
    tokens = text.split()
    if not tokens:
        raise InvalidDistanceMatrix("empty input")
    try:
        values = [decimal_int(t) for t in tokens]
    except ValueError as exc:
        raise InvalidDistanceMatrix(f"non-integer token: {exc}") from None
    n = values[0]
    if n < 1:
        raise InvalidDistanceMatrix(f"point count must be >= 1, got {n}")
    if len(values) != 1 + n * n:
        raise InvalidDistanceMatrix(f"expected {n * n} matrix entries after the count, got {len(values) - 1}")
    rows = [values[1 + i * n : 1 + (i + 1) * n] for i in range(n)]
    return DistanceMatrix(rows)


# ---------------------------------------------------------------------------
# triangle characteristic and collinearity from side lengths
# ---------------------------------------------------------------------------


def _heron(a: int, b: int, c: int) -> int:
    """The Heron product (a+b+c)(a+b-c)(a-b+c)(-a+b+c), 16 times the squared area.

    For sides >= 0 at most one factor is <= 0, as any two of the last three
    sum to twice a side: the product is negative exactly when a triangle
    inequality fails and zero exactly when one is tight.
    """
    return (a + b + c) * (a + b - c) * (a - b + c) * (-a + b + c)


def _heron_part(a: int, b: int, c: int) -> int:
    """Square-free part k of the Heron product of (a, b, c), for a product > 0.

    Merges the parts p of the four factors as k*p / gcd(k, p)**2: each
    factor is at most 3*max(a,b,c), so the huge product itself is never
    factorized.  The sides are first divided by their gcd g, which divides
    the product by g**4 and keeps k, so a scaled certificate is factored
    as the unscaled one is.
    """
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    k = 1
    for f in (a + b + c, a + b - c, a - b + c, -a + b + c):
        p = squarefree_part(f)
        k = k * p // math.gcd(k, p) ** 2
    return k


def _root(h: int, k: int) -> int:
    """The y with k*y**2 == h, or 0 when there is none; for h > 0, k >= 1.

    For a square-free k this is the characteristic test: h has square-free
    part k exactly when the result is nonzero.
    """
    q, r = divmod(h, k)
    y = math.isqrt(q)
    return 0 if r or y * y != q else y


def triangle_characteristic(a: int, b: int, c: int) -> int:
    """Square-free part of (a+b+c)(a+b-c)(a-b+c)(-a+b+c).

    This quantity (16 times the squared area) determines the quadratic
    field containing any exact embedding of the triangle; every
    non-degenerate triangle inside one plane integral point set shares it.
    """
    if min(a, b, c) < 1:
        raise NotATriangle(f"side lengths must be >= 1, got {(a, b, c)}")
    h = _heron(a, b, c)
    if h < 0:
        raise NotATriangle(f"triangle inequality violated for {(a, b, c)}")
    if h == 0:
        raise DegenerateTriangle(f"degenerate triangle {(a, b, c)}")
    return _heron_part(a, b, c)


def is_collinear_triple(a: int, b: int, c: int) -> bool:
    """True iff three points with these pairwise distances are collinear.

    Works on distances alone: the Heron product vanishes exactly when one
    triangle inequality is tight.  Raises NotATriple when a factor is
    negative (no metric triple has these distances).
    """
    if min(a, b, c) < 0:
        raise NotATriple(f"negative distance in {(a, b, c)}")
    h = _heron(a, b, c)
    if h < 0:
        raise NotATriple(f"metric violation for {(a, b, c)}")
    return h == 0


def pointset_characteristic(m: DistanceMatrix) -> int:
    """Common characteristic of all point triples of ``m``.

    Verifies agreement across every triple; a mismatch (which proves the
    matrix is not realizable without collinear points) raises
    CharacteristicMismatch with both witness triangles.  Only the first
    triangle is factorized; every later one is tested against its
    characteristic with ``_root``.
    """
    if m.n < 3:
        raise ValueError("characteristic needs at least 3 points")
    triples = combinations(range(m.n), 3)
    first = next(triples)  # (0, 1, 2)
    k = triangle_characteristic(m.entry(0, 1), m.entry(0, 2), m.entry(1, 2))
    for tri in triples:
        i, j, l = tri
        a, b, c = m.entry(i, j), m.entry(i, l), m.entry(j, l)
        h = _heron(a, b, c)
        if h <= 0 or not _root(h, k):
            # raises for a non-triangle, else names the other characteristic
            raise CharacteristicMismatch(first, k, tri, triangle_characteristic(a, b, c))
    return k


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def canonical_form(m: DistanceMatrix) -> tuple[DistanceMatrix, tuple[int, ...]]:
    """Relabeling with lexicographically maximal upper-triangle vector.

    Returns ``(canonical, perm)`` where ``canonical = m.permuted(perm)``.
    Among all relabelings attaining the maximal vector the
    lexicographically smallest permutation is returned.

    Branch-and-bound over partial labelings: all branches at one node
    share the vector prefix, so a candidate whose next column is not
    maximal among the remaining points cannot lead to the maximal vector
    and is pruned.  Ties branch; leaves compare full vectors.  The
    branches run depth first on an explicit stack: ``stack[i]`` holds the
    column every tie at depth i adds and the ties not yet taken (the next
    one last), and ``prefix`` holds one column per chosen point (every
    full vector has the same column lengths, so comparing columns compares
    the flat vectors).
    """
    n = m.n
    if n == 1:
        return m, (0,)
    rows = m.rows
    diameter = max(map(max, rows))

    best_vec: list[list[int]] = []
    best_perm: list[int] = []
    chosen: list[int] = []
    prefix: list[list[int]] = []
    # the first entry of every vector is d12, so only an endpoint of a
    # diameter can start the maximal one
    stack = [([], [p for p in range(n - 1, -1, -1) if max(rows[p]) == diameter])]
    while stack:
        depth = len(stack) - 1
        top, ties = stack[-1]
        if not ties:
            stack.pop()
            continue
        del chosen[depth:], prefix[depth:]
        chosen.append(ties.pop())
        prefix.append(top)
        if len(chosen) == n:
            if not best_vec or prefix > best_vec or (prefix == best_vec and chosen < best_perm):
                best_vec = list(prefix)
                best_perm = list(chosen)
            continue
        remaining = [p for p in range(n) if p not in chosen]
        cols = {p: [rows[q][p] for q in chosen] for p in remaining}
        top = max(cols.values())
        stack.append((top, [p for p in reversed(remaining) if cols[p] == top]))

    perm = tuple(best_perm)
    return m.permuted(perm), perm


def is_canonical(m: DistanceMatrix) -> bool:
    canon, _ = canonical_form(m)
    return canon.rows == m.rows


# ---------------------------------------------------------------------------
# exact planar embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddedPointSet:
    """Exact points in one integer frame: point ``i`` is (xs[i], ys[i]*sqrt(k))/scale.

    ``k`` is the common square-free radicand (the characteristic for sets
    in general position).  The frame is in lowest terms, gcd(scale, *xs,
    *ys) == 1, so ``scale`` is the least common denominator and equal point
    sets compare equal.  ``points`` views the set as ``Fraction`` pairs
    (x, y_coeff), and ``of_points`` builds it from such pairs.  ``embed``
    puts point 1 at the origin, point 2 on the positive x-axis and point 3
    above it.
    """

    k: int
    scale: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"radicand must be >= 1, got {self.k}")
        if self.scale < 1 or math.gcd(self.scale, *self.xs, *self.ys) != 1:
            raise ValueError(f"frame over scale {self.scale} is not in lowest terms")

    @classmethod
    def of_points(cls, k: int, pairs) -> "EmbeddedPointSet":
        """The set of the pairs ``(x, y_coeff)``, each coordinate an int or a Fraction."""
        pairs = tuple(pairs)
        for i, pt in enumerate(pairs):
            for c in pt:
                if type(c) is bool or not isinstance(c, (int, Fraction)):
                    raise TypeError(f"coordinate {c!r} of point {i + 1} is not an int or a Fraction")
        scale = math.lcm(*(c.denominator for pt in pairs for c in pt))
        xs = tuple(x.numerator * (scale // x.denominator) for x, _ in pairs)
        ys = tuple(y.numerator * (scale // y.denominator) for _, y in pairs)
        return cls(k, scale, xs, ys)

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(x, self.scale), Fraction(y, self.scale)) for x, y in zip(self.xs, self.ys))

    def lifts(self) -> list[tuple[int, int, int]]:
        """The lifts (X^2 + k*Y^2, X, Y) of the points, for the line/circle kernel."""
        return [(x * x + self.k * y * y, x, y) for x, y in zip(self.xs, self.ys)]


def embed(m: DistanceMatrix, allow_collinear: bool = False) -> EmbeddedPointSet:
    """Exact embedding of ``m`` in the plane, or a NotRealizable error.

    Fixes p1 = (0,0) and p2 = (d12, 0) and works in integers scaled by
    s = 2*d12, the frame of the search's candidate index: point j with
    distances a, b to p1, p2 sits at (X_j, Y_j*sqrt(k)) / s, where
    X_j = a^2 + d12^2 - b^2 and k*Y_j^2 = H_j = (s*a)^2 - X_j^2, the Heron
    product of (d12, a, b).  The radicand k is the square-free part of H at
    the reference point p3; every later point's H must be k times a square,
    and the distance to p3 picks the sign of Y.  All remaining pairwise
    distances are then checked exactly, as (s*d)^2, and the frame is
    divided by gcd(s, X, Y) at the end.

    With ``allow_collinear`` points may land on the base line (H = 0) and
    the reference point becomes the first point off the axis; otherwise
    such points raise CollinearBase.  A Heron factor of the reference
    triangle that ``arith.factorize`` cannot split within its bound raises
    ``FactorBoundExceeded``.
    """
    n = m.n
    if n == 1:
        return EmbeddedPointSet(1, 1, (0,), (0,))
    d12 = m.entry(0, 1)
    s = 2 * d12
    xs = [0, s * d12]
    heights = [0, 0]  # H_j, s^2 times the squared height above the base line
    for j in range(2, n):
        a, b = m.entry(0, j), m.entry(1, j)
        x = a * a + d12 * d12 - b * b
        h = (s * a) ** 2 - x * x
        if h < 0:
            raise NotRealizable(
                f"points 1, 2 and {j + 1} violate a triangle inequality"
            )
        if h == 0 and not allow_collinear:
            raise CollinearBase(f"point {j + 1} lies on the line through points 1 and 2")
        xs.append(x)
        heights.append(h)

    ys = [0] * n
    ref = next((j for j in range(2, n) if heights[j] > 0), None)
    if ref is None:
        k = 1  # everything on the base line
    else:
        k = _heron_part(d12, m.entry(0, ref), m.entry(1, ref))
        ys[ref] = math.isqrt(heights[ref] // k)

    for j in range(2, n):
        h = heights[j]
        if j == ref or h == 0:
            continue
        # k is square-free, so h/k is a rational square iff it is an integer square
        y = _root(h, k)
        if not y:
            raise NotRealizable(
                f"squared height of point {j + 1} is {Fraction(h, s * s)}, "
                f"not a rational square times the radicand {k}"
            )
        target = (s * m.entry(ref, j)) ** 2
        dx = xs[ref] - xs[j]
        sign = next((c for c in (y, -y) if dx * dx + k * (ys[ref] - c) ** 2 == target), None)
        if sign is None:
            raise NotRealizable(
                f"no y sign for point {j + 1} matches its distance to point {ref + 1}"
            )
        ys[j] = sign

    for i in range(n):
        for j in range(i + 1, n):
            if (xs[i] - xs[j]) ** 2 + k * (ys[i] - ys[j]) ** 2 != (s * m.entry(i, j)) ** 2:
                raise NotRealizable(
                    f"embedded distance between points {i + 1} and {j + 1} "
                    f"does not match the matrix"
                )
    g = math.gcd(s, *xs, *ys)
    return EmbeddedPointSet(k, s // g, tuple(x // g for x in xs), tuple(y // g for y in ys))


def distances_from_embedding(e: EmbeddedPointSet) -> DistanceMatrix:
    """Recover the integer distance matrix from exact coordinates.

    Works in the frame of ``e``: a distance is the integer D exactly when
    the squared distance of the integer points, (Xi - Xj)^2 + k*(Yi - Yj)^2,
    is (scale*D)^2.  Raises CoincidentPoints for a repeated point and
    NonIntegralDistance when some pairwise distance is not an integer.
    """
    n, k, scale, xs, ys = e.n, e.k, e.scale, e.xs, e.ys
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        sq = (xs[i] - xs[j]) ** 2 + k * (ys[i] - ys[j]) ** 2
        if sq == 0:
            raise CoincidentPoints(i, j)
        root = math.isqrt(sq)
        if root * root != sq or root % scale:
            raise NonIntegralDistance(i, j, Fraction(sq, scale * scale))
        rows[i][j] = rows[j][i] = root // scale
    return DistanceMatrix(rows)


# ---------------------------------------------------------------------------
# lines and circles: one integer kernel
# ---------------------------------------------------------------------------

# A point (x, y*sqrt(k)) in scaled coordinates is lifted to (x^2 + k*y^2, x, y).
# A test (A, B, C, D) meets the point with lift (n, x, y) when
# A*n + B*x + C*y + D == 0: for the line through two points A = 0, and for
# the circle through three points (A, B, C, D) are the cofactors of the 4x4
# concyclicity determinant along the row of the fourth point.  In the plane
# its rows are (x^2 + y^2, x, y, 1); sqrt(k) factors out of the y column and
# the common denominator out of every row, so the integer determinant
# vanishes exactly when the exact one does.


def _line(p, q) -> tuple[int, int, int, int]:
    _, px, py = p
    _, qx, qy = q
    return (0, py - qy, qx - px, px * qy - qx * py)


def _circle(p, q, r) -> tuple[int, int, int, int]:
    (n1, x1, y1), (n2, x2, y2), (n3, x3, y3) = p, q, r
    return (
        (x3 - x1) * (y2 - y1) - (x2 - x1) * (y3 - y1),
        (n2 - n1) * (y3 - y1) - (n3 - n1) * (y2 - y1),
        (n3 - n1) * (x2 - x1) - (n2 - n1) * (x3 - x1),
        n1 * (x2 * y3 - x3 * y2) - x1 * (n2 * y3 - n3 * y2) + y1 * (n2 * x3 - n3 * x2),
    )


def _avoids(tests, point) -> bool:
    """True when the lifted point lies on none of the tested lines and circles."""
    n, x, y = point
    return all(a * n + b * x + c * y + e for a, b, c, e in tests)


def is_concyclic_or_collinear(p, q, r, s, k: int = 1) -> bool:
    """True iff the four points lie on a common circle or common line.

    Each point is a pair ``(x, c)`` of rationals (ints or Fractions) that
    stands for ``(x, c*sqrt(k))``, the form of ``EmbeddedPointSet.points``;
    with the default ``k = 1`` the pairs are plain rational points.  They
    go through ``EmbeddedPointSet.of_points``, which checks them and k.
    """
    a, b, c, d = EmbeddedPointSet.of_points(k, (p, q, r, s)).lifts()
    return not _avoids((_circle(a, b, c),), d)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    passed: bool
    detail: str = ""


# the checks of a report, in report order, with their labels in ``lines()``
_CHECK_LABELS = {
    "symmetric_positive": "symmetry/positivity",
    "strict_triangles": "strict triangle inequalities",
    "realizable": "planar realizability",
    "no_collinear_triple": "no three collinear",
    "no_concyclic_quadruple": "no four concyclic",
    "uniform_characteristic": "uniform characteristic",
    "canonical": "canonical form",
}


@dataclass
class VerificationReport:
    symmetric_positive: CheckResult
    strict_triangles: CheckResult
    realizable: CheckResult
    no_collinear_triple: CheckResult
    no_concyclic_quadruple: CheckResult
    uniform_characteristic: CheckResult
    canonical: CheckResult
    diameter: int
    characteristic: Optional[int]

    CHECK_FIELDS = tuple(_CHECK_LABELS)

    @property
    def passed(self) -> bool:
        return all(getattr(self, f).passed for f in self.CHECK_FIELDS)

    @property
    def cluster_candidate(self) -> bool:
        return self.characteristic == 1

    def lines(self) -> list[str]:
        out = []
        for f, label in _CHECK_LABELS.items():
            res: CheckResult = getattr(self, f)
            status = "pass" if res.passed else "FAIL"
            suffix = f" ({res.detail})" if res.detail and not res.passed else ""
            out.append(f"{label}: {status}{suffix}")
        char = self.characteristic if self.characteristic is not None else "-"
        cluster = "yes" if self.cluster_candidate else "no"
        out.append(f"diameter={self.diameter} characteristic={char} cluster_candidate={cluster}")
        out.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return out


def verify(m: DistanceMatrix | Sequence[Sequence[int]]) -> VerificationReport:
    """Run every certificate check on ``m`` and report per-check results.

    Never raises for bad geometry: failures become report entries.  Raw
    nested sequences are accepted so that structurally broken input can
    be diagnosed too.  A Heron factor that ``arith.factorize`` cannot
    split within its bound raises ``FactorBoundExceeded``.
    """
    try:
        matrix = m if isinstance(m, DistanceMatrix) else DistanceMatrix(m)
    except InvalidDistanceMatrix as exc:
        skipped = CheckResult(False, "not evaluated: invalid matrix structure")
        checks = dict.fromkeys(_CHECK_LABELS, skipped)
        checks["symmetric_positive"] = CheckResult(False, str(exc))
        return VerificationReport(**checks, diameter=0, characteristic=None)

    n = matrix.n
    diameter = matrix.diameter()

    strict = CheckResult(True)
    collinear = CheckResult(True)
    uniform = CheckResult(True)
    characteristic: Optional[int] = None
    for tri in combinations(range(n), 3):
        i, j, l = tri
        a, b, c = matrix.entry(i, j), matrix.entry(i, l), matrix.entry(j, l)
        h = _heron(a, b, c)
        label = f"points {(i + 1, j + 1, l + 1)}"
        if h < 0:
            if strict.passed:
                strict = CheckResult(False, f"triangle inequality violated at {label}")
            if uniform.passed:
                uniform = CheckResult(False, f"no characteristic: metric violation at {label}")
        elif h == 0:
            if strict.passed:
                strict = CheckResult(False, f"tight triangle inequality at {label}")
            if collinear.passed:
                collinear = CheckResult(False, f"collinear triple at {label}")
            if uniform.passed:
                uniform = CheckResult(False, f"no characteristic: degenerate triangle at {label}")
        elif uniform.passed:
            if characteristic is None:
                characteristic = _heron_part(a, b, c)
            elif not _root(h, characteristic):
                uniform = CheckResult(
                    False,
                    f"characteristic {_heron_part(a, b, c)} at {label} differs from {characteristic}",
                )

    embedding: Optional[EmbeddedPointSet] = None
    try:
        embedding = embed(matrix, allow_collinear=True)
        realizable = CheckResult(True)
    except PointSetError as exc:
        realizable = CheckResult(False, str(exc))

    if embedding is not None:
        concyclic = CheckResult(True)
        lifts = embedding.lifts()
        for quad in combinations(range(n), 4):
            a, b, c, d = (lifts[i] for i in quad)
            if _avoids((_circle(a, b, c),), d):
                continue
            # four points on one line are not a concyclic quadruple
            line = (_line(a, b),)
            if _avoids(line, c) or _avoids(line, d):
                concyclic = CheckResult(
                    False, f"concyclic quadruple at points {tuple(i + 1 for i in quad)}"
                )
                break
    else:
        concyclic = CheckResult(False, "not evaluated: embedding failed")

    canonical = CheckResult(True) if is_canonical(matrix) else CheckResult(False, "matrix is not in canonical form")

    if not uniform.passed:
        characteristic = None

    return VerificationReport(
        symmetric_positive=CheckResult(True),
        strict_triangles=strict,
        realizable=realizable,
        no_collinear_triple=collinear,
        no_concyclic_quadruple=concyclic,
        uniform_characteristic=uniform,
        canonical=canonical,
        diameter=diameter,
        characteristic=characteristic,
    )
