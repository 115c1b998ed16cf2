"""Independent reference implementations used only to check the library.

Everything here is deliberately naive: n! enumeration, a cross-ratio test
on Fraction pairs, an embedding in Fraction arithmetic, sympy
factorization.  None of it shares code with the
package; only the ``DistanceMatrix`` container is imported.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import isqrt

from sympy import factorint, isprime

from intpoints.pointset import DistanceMatrix


def sympy_is_prime(n: int) -> bool:
    return isprime(n)


def sympy_squarefree_part(n: int) -> int:
    m = 1
    for p, e in factorint(n).items():
        if e % 2:
            m *= p
    return m


def sympy_triangle_characteristic(a: int, b: int, c: int) -> int:
    return sympy_squarefree_part((a + b + c) * (a + b - c) * (a - b + c) * (-a + b + c))


def _rational_sqrt(q: Fraction):
    """The rational r >= 0 with r*r == q, or None when q is no rational square."""
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def fraction_embed(m: DistanceMatrix, allow_collinear: bool = False):
    """Exact embedding in Fraction coordinates: ``(k, points)`` with point i
    at (x, q*sqrt(k)) for ``(x, q) = points[i]``.

    The convention, the checks and their order are those of
    ``pointset.embed``: p1 = (0, 0), p2 = (d12, 0), x of every later point
    from its distances to p1 and p2, the radicand k from the first point off
    the base line (the reference), the sign of q from the distance to the
    reference, then every distance.  A failure raises ValueError with the
    message ``embed`` gives.
    """
    n = m.n
    if n == 1:
        return 1, ((Fraction(0), Fraction(0)),)
    d = m.rows[0][1]
    xs = [Fraction(0), Fraction(d)]
    heights = [Fraction(0), Fraction(0)]  # squared heights above the base line
    for j in range(2, n):
        a, b = m.rows[0][j], m.rows[1][j]
        x = Fraction(a * a + d * d - b * b, 2 * d)
        h = a * a - x * x
        if h < 0:
            raise ValueError(f"points 1, 2 and {j + 1} violate a triangle inequality")
        if h == 0 and not allow_collinear:
            raise ValueError(f"point {j + 1} lies on the line through points 1 and 2")
        xs.append(x)
        heights.append(h)

    qs = [Fraction(0)] * n
    ref = next((j for j in range(2, n) if heights[j] > 0), None)
    k = 1 if ref is None else sympy_triangle_characteristic(d, m.rows[0][ref], m.rows[1][ref])
    for j in range(2, n):
        if heights[j] == 0:
            continue
        q = _rational_sqrt(heights[j] / k)
        if q is None:
            raise ValueError(
                f"squared height of point {j + 1} is {heights[j]}, "
                f"not a rational square times the radicand {k}"
            )
        if j != ref:
            target = m.rows[ref][j] ** 2
            q = next((c for c in (q, -q) if (xs[ref] - xs[j]) ** 2 + k * (qs[ref] - c) ** 2 == target), None)
            if q is None:
                raise ValueError(f"no y sign for point {j + 1} matches its distance to point {ref + 1}")
        qs[j] = q

    for i, j in combinations(range(n), 2):
        if (xs[i] - xs[j]) ** 2 + k * (qs[i] - qs[j]) ** 2 != m.rows[i][j] ** 2:
            raise ValueError(f"embedded distance between points {i + 1} and {j + 1} does not match the matrix")
    return k, tuple(zip(xs, qs))


def naive_canonical(m: DistanceMatrix) -> tuple[DistanceMatrix, tuple[int, ...]]:
    """Maximal upper-triangle vector over all n! relabelings."""
    n = m.n
    best = None
    best_perm = None
    for perm in permutations(range(n)):
        v = tuple(m.rows[perm[i]][perm[j]] for j in range(1, n) for i in range(j))
        if best is None or v > best or (v == best and perm < best_perm):
            best, best_perm = v, perm
    return m.permuted(best_perm), best_perm


def naive_candidates(d: int) -> list:
    """Every point at integral distances a, b <= d from (0,0) and (d,0) and
    off the line through them, as (a, b, x, q, k) for the point
    (x, q*sqrt(k)), both signs of q, by a scan of all (a, b) with exact
    Fraction coordinates."""
    cands = []
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            if a + b <= d:
                continue
            prod = (d + a + b) * (d + a - b) * (d - a + b) * (a + b - d)
            k = sympy_squarefree_part(prod)
            s = isqrt(prod // k)
            x = Fraction(a * a + d * d - b * b, 2 * d)
            q = Fraction(s, 2 * d)
            cands.append((a, b, x, q, k))
            cands.append((a, b, x, -q, k))
    return cands


def brute_force_point_sets(target_n: int, d_cap: int) -> set:
    """Every canonical general-position integral set of target_n points with
    diameter <= d_cap, by naive enumeration.

    A set's diameter edge is anchored at (0,0)-(D,0); further points are found
    by scanning all integer distance pairs (a, b) to the base points, with
    exact Fraction coordinates over sqrt(k).  Geometry is checked with the
    cross-ratio oracle and cross products, canonicalization is the n!
    enumeration.  Shares no code with the search engine.
    """
    results = set()
    for d in range(1, d_cap + 1):
        cands = naive_candidates(d)

        def pair_ok(c1, c2):
            if c1[4] != c2[4]:
                # mixed radicands: the squared distance has an irrational
                # cross term -2*q1*q2*sqrt(k1*k2), never an integer
                return None
            sq = (c1[2] - c2[2]) ** 2 + c1[4] * (c1[3] - c2[3]) ** 2
            if sq.denominator != 1:
                return None
            r = isqrt(sq.numerator)
            if r * r != sq.numerator or not (1 <= r <= d):
                return None
            return r

        def collinear(p1, p2, p3):
            return (p2[0] - p1[0]) * (p3[1] - p1[1]) == (p3[0] - p1[0]) * (p2[1] - p1[1])

        def general_position(points, k):
            for tri in combinations(points, 3):
                if collinear(*tri):
                    return False
            for quad in combinations(points, 4):
                if cross_ratio_concyclic_or_collinear(quad, k):
                    return False
            return True

        base = [(Fraction(0), Fraction(0)), (Fraction(d), Fraction(0))]
        extra = target_n - 2

        def matrix_of(chosen):
            n = target_n
            rows = [[0] * n for _ in range(n)]
            rows[0][1] = rows[1][0] = d
            for i, c in enumerate(chosen):
                rows[0][i + 2] = rows[i + 2][0] = c[0]
                rows[1][i + 2] = rows[i + 2][1] = c[1]
            for i, j in combinations(range(len(chosen)), 2):
                t = pair_ok(chosen[i], chosen[j])
                rows[i + 2][j + 2] = rows[j + 2][i + 2] = t
            return DistanceMatrix(rows)

        def dfs(chosen, start):
            if len(chosen) == extra:
                pts = base + [(c[2], c[3]) for c in chosen]
                if general_position(pts, chosen[0][4] if chosen else 1):
                    canon, _ = naive_canonical(matrix_of(chosen))
                    results.add(canon.rows)
                return
            for i in range(start, len(cands)):
                c = cands[i]
                if all(pair_ok(c, o) is not None for o in chosen):
                    chosen.append(c)
                    dfs(chosen, i + 1)
                    chosen.pop()

        dfs([], 0)
    return results


def brute_force_mod_max(n: int, rooted: bool = True) -> tuple[int, tuple]:
    """Maximum general-position subset of Z_n^2 by subset DFS with pruning.

    Uses the literal definitions directly (memoized on translated keys);
    no bound pruning.  The one symmetry used is translation, and only when
    ``rooted``: every set starts at (0, 0).  A translation by -p maps a set
    with point p to one with (0, 0) and keeps each predicate, as integral
    distance and collinearity read only differences of points and a circle
    moves with its centre.  So some maximum set holds (0, 0), and the rooted
    maximum is the maximum.
    """
    pts = [(u, v) for u in range(n) for v in range(n)]
    squares = {(d * d) % n for d in range(n)}
    r_sq = {(r * r) % n for r in range(1, n)}

    def integral(p, q):
        return ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) % n in squares

    collinear_cache: dict = {}

    def is_coll(p1, p2, p3):
        d2 = ((p2[0] - p1[0]) % n, (p2[1] - p1[1]) % n)
        d3 = ((p3[0] - p1[0]) % n, (p3[1] - p1[1]) % n)
        key = tuple(sorted((d2, d3)))
        hit = collinear_cache.get(key)
        if hit is not None:
            return hit
        found = False
        for t1 in range(n):
            for t2 in range(n):
                if all(
                    any((w * t1 - du) % n == 0 and (w * t2 - dv) % n == 0 for w in range(n))
                    for du, dv in (d2, d3)
                ):
                    found = True
                    break
            if found:
                break
        collinear_cache[key] = found
        return found

    circle_cache: dict = {}

    def on_circle(quad):
        base = quad[0]
        key = tuple(sorted(((p[0] - base[0]) % n, (p[1] - base[1]) % n) for p in quad))
        hit = circle_cache.get(key)
        if hit is not None:
            return hit
        found = False
        for a in range(n):
            for b in range(n):
                vals = {((p[0] - a) ** 2 + (p[1] - b) ** 2) % n for p in key}
                if len(vals) == 1 and vals.pop() in r_sq:
                    found = True
                    break
            if found:
                break
        circle_cache[key] = found
        return found

    best = [0, ()]

    def dfs(chosen, start):
        if len(chosen) > best[0]:
            best[0] = len(chosen)
            best[1] = tuple(chosen)
        for i in range(start, len(pts)):
            p = pts[i]
            if not all(integral(p, q) for q in chosen):
                continue
            if any(is_coll(a, b, p) for a, b in combinations(chosen, 2)):
                continue
            if any(on_circle((a, b, c, p)) for a, b, c in combinations(chosen, 3)):
                continue
            chosen.append(p)
            dfs(chosen, i + 1)
            chosen.pop()

    if rooted:
        dfs([pts[0]], 1)  # pts[0] is (0, 0)
    else:
        dfs([], 0)
    return best[0], tuple(sorted(best[1]))


def cross_ratio_concyclic_or_collinear(pts, k: int = 1) -> bool:
    """Concyclicity via the cross ratio of four points of the complex plane.

    Points are (x, q) pairs of rationals standing for z = x + i*q*sqrt(k).
    Four distinct points lie on one circle or line exactly when
    (z1 - z3)(z2 - z4) / ((z1 - z4)(z2 - z3)) is real, that is when
    num * conj(den) has no imaginary part.  A complex number is held as
    (re, im / sqrt(k)), so products stay pairs of Fractions.  A repeated
    point leaves at most three, which always qualify, and gives True.
    """
    z = [(Fraction(x), Fraction(q)) for x, q in pts]

    def sub(u, v):
        return u[0] - v[0], u[1] - v[1]

    def mul(u, v):
        return u[0] * v[0] - k * u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    num = mul(sub(z[0], z[2]), sub(z[1], z[3]))
    den = mul(sub(z[0], z[3]), sub(z[1], z[2]))
    return mul(num, (den[0], -den[1]))[1] == 0
