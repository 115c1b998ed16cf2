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
from typing import Iterable, Optional, Sequence

from .arith import merge_squarefree, rational_perfect_square, squarefree_decompose


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
        object.__setattr__(self, "rows", tuple(tuple(int(x) for x in r) for r in rows))
        check_matrix_shape(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def diameter(self) -> int:
        return max((x for row in self.rows for x in row), default=0)

    def upper_vector(self) -> tuple[int, ...]:
        """Upper-right triangle read column by column: d12, d13, d23, d14, ..."""
        return tuple(self.rows[i][j] for j in range(1, self.n) for i in range(j))

    def permuted(self, perm: Sequence[int]) -> "DistanceMatrix":
        """Relabeled copy: new point i is old point perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm}")
        return DistanceMatrix(tuple(tuple(self.rows[pi][pj] for pj in perm) for pi in perm))

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines += [" ".join(str(x) for x in row) for row in self.rows]
        return "\n".join(lines) + "\n"


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

    Every token is a plain ASCII decimal integer, ``-?[0-9]+``: ``int()``
    alone would also read digit separators and non-ASCII digits, which
    another reader of the same certificate may not.
    """
    tokens = text.split()
    if not tokens:
        raise InvalidDistanceMatrix("empty input")
    for t in tokens:
        if not (t.isascii() and t.removeprefix("-").isdigit()):
            raise InvalidDistanceMatrix(f"non-integer token: {t!r}")
    values = [int(t) for t in tokens]
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


def _heron_factors(a: int, b: int, c: int) -> tuple[int, int, int, int]:
    return (a + b + c, a + b - c, a - b + c, -a + b + c)


def _heron_decompose(a: int, b: int, c: int) -> tuple[int, int]:
    """(k, s) with (a+b+c)(a+b-c)(a-b+c)(-a+b+c) = k*s**2, k square-free.

    Decomposes factor by factor: each factor is at most 4*max(a,b,c), so
    the huge product itself is never factorized.
    """
    k, s = 1, 1
    for f in _heron_factors(a, b, c):
        fk, fs = squarefree_decompose(f)
        k, s = merge_squarefree(k, s, fk, fs)
    return k, s


def triangle_characteristic(a: int, b: int, c: int) -> int:
    """Square-free part of (a+b+c)(a+b-c)(a-b+c)(-a+b+c).

    This quantity (16 times the squared area) determines the quadratic
    field containing any exact embedding of the triangle; every
    non-degenerate triangle inside one plane integral point set shares it.
    """
    if min(a, b, c) < 1:
        raise NotATriangle(f"side lengths must be >= 1, got {(a, b, c)}")
    factors = _heron_factors(a, b, c)
    if any(f < 0 for f in factors):
        raise NotATriangle(f"triangle inequality violated for {(a, b, c)}")
    if any(f == 0 for f in factors):
        raise DegenerateTriangle(f"degenerate triangle {(a, b, c)}")
    return _heron_decompose(a, b, c)[0]


def is_collinear_triple(a: int, b: int, c: int) -> bool:
    """True iff three points with these pairwise distances are collinear.

    Works on distances alone: the Heron product vanishes exactly when one
    triangle inequality is tight.  Raises NotATriple when a factor is
    negative (no metric triple has these distances).
    """
    if min(a, b, c) < 0:
        raise NotATriple(f"negative distance in {(a, b, c)}")
    factors = _heron_factors(a, b, c)
    if any(f < 0 for f in factors):
        raise NotATriple(f"metric violation for {(a, b, c)}")
    return any(f == 0 for f in factors)


def pointset_characteristic(m: DistanceMatrix) -> int:
    """Common characteristic of all point triples of ``m``.

    Verifies agreement across every triple; a mismatch (which proves the
    matrix is not realizable without collinear points) raises
    CharacteristicMismatch with both witness triangles.
    """
    if m.n < 3:
        raise ValueError("characteristic needs at least 3 points")
    first_tri: Optional[tuple[int, int, int]] = None
    first_char = 0
    for tri in combinations(range(m.n), 3):
        i, j, l = tri
        c = triangle_characteristic(m.entry(i, j), m.entry(i, l), m.entry(j, l))
        if first_tri is None:
            first_tri, first_char = tri, c
        elif c != first_char:
            raise CharacteristicMismatch(first_tri, first_char, tri, c)
    return first_char


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
    """Exact coordinates realizing a distance matrix.

    Point ``i`` sits at ``(x, y_coeff * sqrt(k))`` where
    ``(x, y_coeff) = points[i]`` are rationals and ``k`` is the common
    square-free radicand (the characteristic for sets in general
    position).  Convention: point 1 at the origin, point 2 on the
    positive x-axis, point 3 above it.  Four of the ``points`` with
    ``k`` go straight into ``is_concyclic_or_collinear``.
    """

    k: int
    points: tuple[tuple[Fraction, Fraction], ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def x(self, i: int) -> Fraction:
        return self.points[i][0]

    def y_coeff(self, i: int) -> Fraction:
        return self.points[i][1]

    def squared_distance(self, i: int, j: int) -> Fraction:
        dx = self.points[i][0] - self.points[j][0]
        dq = self.points[i][1] - self.points[j][1]
        return dx * dx + self.k * dq * dq


def embed(m: DistanceMatrix, allow_collinear: bool = False) -> EmbeddedPointSet:
    """Exact embedding of ``m`` in the plane, or a NotRealizable error.

    Fixes p1 = (0,0) and p2 = (d12, 0); the radicand k is the
    characteristic of the first base triangle, every later point gets its
    x from the distances to p1 and p2 and its y sign from the distance to
    the reference point p3.  All remaining pairwise distances are then
    checked exactly.

    With ``allow_collinear`` points may land on the base line (y = 0) and
    the reference point becomes the first point off the axis; otherwise
    such points raise CollinearBase.
    """
    n = m.n
    if n == 1:
        return EmbeddedPointSet(1, ((Fraction(0), Fraction(0)),))
    d12 = m.entry(0, 1)
    coords: list[tuple[Fraction, Fraction]] = [
        (Fraction(0), Fraction(0)),
        (Fraction(d12), Fraction(0)),
    ]

    # x_j and squared height above the base line, from distances to p1, p2
    heights: list[Fraction] = [Fraction(0), Fraction(0)]
    for j in range(2, n):
        a, b = m.entry(0, j), m.entry(1, j)
        xj = Fraction(a * a + d12 * d12 - b * b, 2 * d12)
        y2 = a * a - xj * xj
        if y2 < 0:
            raise NotRealizable(
                f"points 1, 2 and {j + 1} violate a triangle inequality"
            )
        if y2 == 0 and not allow_collinear:
            raise CollinearBase(f"point {j + 1} lies on the line through points 1 and 2")
        coords.append((xj, Fraction(0)))
        heights.append(y2)

    ref = next((j for j in range(2, n) if heights[j] > 0), None)
    if ref is None:
        k = 1  # everything on the base line
    else:
        k, s = _heron_decompose(d12, m.entry(0, ref), m.entry(1, ref))
        coords[ref] = (coords[ref][0], Fraction(s, 2 * d12))

    for j in range(2, n):
        if j == ref or heights[j] == 0:
            continue
        q2 = heights[j] / k
        qj, ok = rational_perfect_square(q2)
        if not ok:
            raise NotRealizable(
                f"squared height of point {j + 1} is {heights[j]}, "
                f"not a rational square times the radicand {k}"
            )
        xr, qr = coords[ref]  # type: ignore[misc]
        xj = coords[j][0]
        target = m.entry(ref, j) ** 2
        sign = None
        for cand in (qj, -qj):
            if (xr - xj) ** 2 + k * (qr - cand) ** 2 == target:
                sign = cand
                break
        if sign is None:
            raise NotRealizable(
                f"no y sign for point {j + 1} matches its distance to point {ref + 1}"
            )
        coords[j] = (xj, sign)

    embedding = EmbeddedPointSet(k, tuple(coords))
    for i in range(n):
        for j in range(i + 1, n):
            if embedding.squared_distance(i, j) != m.entry(i, j) ** 2:
                raise NotRealizable(
                    f"embedded distance between points {i + 1} and {j + 1} "
                    f"does not match the matrix"
                )
    return embedding


def distances_from_embedding(e: EmbeddedPointSet) -> DistanceMatrix:
    """Recover the integer distance matrix from exact coordinates.

    Raises CoincidentPoints for a repeated point and NonIntegralDistance
    when some pairwise distance is not an integer.
    """
    n = e.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sq = e.squared_distance(i, j)
            if sq == 0:
                raise CoincidentPoints(i, j)
            root, ok = rational_perfect_square(sq)
            if not ok or root.denominator != 1:
                raise NonIntegralDistance(i, j, sq)
            rows[i][j] = rows[j][i] = int(root)
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


def _lift(points: Sequence[tuple[Fraction, Fraction]], k: int) -> list[tuple[int, int, int]]:
    """Lifts of the points (x, q*sqrt(k)), scaled to a common denominator."""
    scale = math.lcm(*(c.denominator for pt in points for c in pt))
    lifts = []
    for x, q in points:
        sx = x.numerator * (scale // x.denominator)
        sq = q.numerator * (scale // q.denominator)
        lifts.append((sx * sx + k * sq * sq, sx, sq))
    return lifts


def is_concyclic_or_collinear(p, q, r, s, k: int = 1) -> bool:
    """True iff the four points lie on a common circle or common line.

    Each point is a pair ``(x, c)`` of rationals (ints or Fractions) that
    stands for ``(x, c*sqrt(k))``, the form of ``EmbeddedPointSet.points``;
    with the default ``k = 1`` the pairs are plain rational points.
    """
    a, b, c, d = _lift((p, q, r, s), k)
    return not _avoids((_circle(a, b, c),), d)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    passed: bool
    detail: str = ""


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
    cluster_candidate: bool
    embedding: Optional[EmbeddedPointSet] = None

    CHECK_FIELDS = (
        "symmetric_positive",
        "strict_triangles",
        "realizable",
        "no_collinear_triple",
        "no_concyclic_quadruple",
        "uniform_characteristic",
        "canonical",
    )

    @property
    def passed(self) -> bool:
        return all(getattr(self, f).passed for f in self.CHECK_FIELDS)

    def lines(self) -> list[str]:
        labels = {
            "symmetric_positive": "symmetry/positivity",
            "strict_triangles": "strict triangle inequalities",
            "realizable": "planar realizability",
            "no_collinear_triple": "no three collinear",
            "no_concyclic_quadruple": "no four concyclic",
            "uniform_characteristic": "uniform characteristic",
            "canonical": "canonical form",
        }
        out = []
        for f in self.CHECK_FIELDS:
            res: CheckResult = getattr(self, f)
            status = "pass" if res.passed else "FAIL"
            suffix = f" ({res.detail})" if res.detail and not res.passed else ""
            out.append(f"{labels[f]}: {status}{suffix}")
        char = self.characteristic if self.characteristic is not None else "-"
        cluster = "yes" if self.cluster_candidate else "no"
        out.append(f"diameter={self.diameter} characteristic={char} cluster_candidate={cluster}")
        out.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return out


def verify(m: DistanceMatrix | Sequence[Sequence[int]]) -> VerificationReport:
    """Run every certificate check on ``m`` and report per-check results.

    Never raises for bad geometry: failures become report entries.  Raw
    nested sequences are accepted so that structurally broken input can
    be diagnosed too.
    """
    if isinstance(m, DistanceMatrix):
        matrix: Optional[DistanceMatrix] = m
        structural = CheckResult(True)
    else:
        try:
            matrix = DistanceMatrix(m)
            structural = CheckResult(True)
        except InvalidDistanceMatrix as exc:
            matrix = None
            structural = CheckResult(False, str(exc))

    if matrix is None:
        skipped = CheckResult(False, "not evaluated: invalid matrix structure")
        return VerificationReport(
            symmetric_positive=structural,
            strict_triangles=skipped,
            realizable=skipped,
            no_collinear_triple=skipped,
            no_concyclic_quadruple=skipped,
            uniform_characteristic=skipped,
            canonical=skipped,
            diameter=0,
            characteristic=None,
            cluster_candidate=False,
        )

    n = matrix.n
    diameter = matrix.diameter()

    strict = CheckResult(True)
    collinear = CheckResult(True)
    uniform = CheckResult(True)
    characteristic: Optional[int] = None
    for tri in combinations(range(n), 3):
        i, j, l = tri
        a, b, c = matrix.entry(i, j), matrix.entry(i, l), matrix.entry(j, l)
        factors = _heron_factors(a, b, c)
        label = f"points {(i + 1, j + 1, l + 1)}"
        if any(f < 0 for f in factors):
            if strict.passed:
                strict = CheckResult(False, f"triangle inequality violated at {label}")
            if uniform.passed:
                uniform = CheckResult(False, f"no characteristic: metric violation at {label}")
        elif any(f == 0 for f in factors):
            if strict.passed:
                strict = CheckResult(False, f"tight triangle inequality at {label}")
            if collinear.passed:
                collinear = CheckResult(False, f"collinear triple at {label}")
            if uniform.passed:
                uniform = CheckResult(False, f"no characteristic: degenerate triangle at {label}")
        elif uniform.passed:
            k = triangle_characteristic(a, b, c)
            if characteristic is None:
                characteristic = k
            elif k != characteristic:
                uniform = CheckResult(
                    False,
                    f"characteristic {k} at {label} differs from {characteristic}",
                )

    embedding: Optional[EmbeddedPointSet] = None
    try:
        embedding = embed(matrix, allow_collinear=True)
        realizable = CheckResult(True)
    except PointSetError as exc:
        realizable = CheckResult(False, str(exc))

    if embedding is not None:
        concyclic = CheckResult(True)
        lifts = _lift(embedding.points, embedding.k)
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
        symmetric_positive=structural,
        strict_triangles=strict,
        realizable=realizable,
        no_collinear_triple=collinear,
        no_concyclic_quadruple=concyclic,
        uniform_characteristic=uniform,
        canonical=canonical,
        diameter=diameter,
        characteristic=characteristic,
        cluster_candidate=characteristic == 1,
        embedding=embedding,
    )
