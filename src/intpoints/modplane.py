"""The relaxed problem over Z_n x Z_n.

Points of the modular plane are at integral distance when the sum of
squared coordinate differences is a square in Z_n; lines are parametric
images {(a + w*t1, b + w*t2)} and circles are solution sets of
(x-a)^2 + (y-b)^2 = r^2 with r != 0.  All three predicates are
invariant under translation and under the stabilizer of (0, 0) that the
swap, the negation of x, unit scalings and the rotations of determinant 1
generate; the maximum-size search fixes its first point by the former and
takes one second point per orbit of the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

ModPoint = tuple[int, int]


class ModContext:
    """Precomputed structure for one modulus n >= 2.

    ``squares`` is the full set of squares in Z_n (distance values admitted
    by the integral-distance test); ``radius_squares`` the values r^2 for
    r != 0 (admissible squared circle radii, may contain 0 for composite n).
    Only the search needs the incidence structures: ``line_masks`` is built
    on each call, once per search, and ``circles_through`` caches each
    point's circles, because the search asks for them at every admission.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        self.n = n
        self.squares = frozenset((d * d) % n for d in range(n))
        self.radius_squares = frozenset((r * r) % n for r in range(1, n))
        self._circles_through: dict[int, list[int]] = {}

    def reduce(self, p: ModPoint) -> ModPoint:
        return (p[0] % self.n, p[1] % self.n)

    # -- incidence structures for the search -------------------------------

    def line_masks(self) -> list[int]:
        """For each difference vector, a bitmask of the cyclic subgroups
        of Z_n^2 containing it.

        Three distinct points p, q, r are collinear exactly when q - p and
        r - p lie in one common single-generator subgroup (the direction of
        the parametric line through p).
        """
        n = self.n
        subgroups: dict[frozenset[int], int] = {}
        for t1 in range(n):
            for t2 in range(n):
                members = frozenset((w * t1 % n) * n + (w * t2 % n) for w in range(n))
                if members not in subgroups:
                    subgroups[members] = len(subgroups)
        masks = [0] * (n * n)
        for members, idx in subgroups.items():
            bit = 1 << idx
            for delta in members:
                masks[delta] |= bit
        return masks

    def circles_through(self, idx: int) -> list[int]:
        """Encoded (center, squared-radius) keys of circles through a point."""
        cached = self._circles_through.get(idx)
        if cached is not None:
            return cached
        n = self.n
        x, y = divmod(idx, n)
        out = []
        for a in range(n):
            for b in range(n):
                val = ((x - a) ** 2 + (y - b) ** 2) % n
                if val in self.radius_squares:
                    out.append((a * n + b) * n + val)
        self._circles_through[idx] = out
        return out


def mod_integral_distance(p: ModPoint, q: ModPoint, ctx: ModContext) -> bool:
    """True iff the squared distance of p and q is a square in Z_n."""
    n = ctx.n
    return ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) % n in ctx.squares


def mod_is_collinear(points: Sequence[ModPoint], ctx: ModContext) -> bool:
    """Literal parametric-line test.

    Anchors (a, b) at the first point (any common shift of the parameters
    w_i can be absorbed there) and exhausts all directions (t1, t2); each
    remaining point needs some w with w*t1 = du and w*t2 = dv mod n.
    """
    n = ctx.n
    pts = [ctx.reduce(p) for p in points]
    if len(pts) < 2:
        return True
    a, b = pts[0]
    deltas = [((u - a) % n, (v - b) % n) for u, v in pts[1:]]
    for t1 in range(n):
        for t2 in range(n):
            if all(
                any((w * t1 - du) % n == 0 and (w * t2 - dv) % n == 0 for w in range(n))
                for du, dv in deltas
            ):
                return True
    return False


def mod_on_circle(
    p1: ModPoint, p2: ModPoint, p3: ModPoint, p4: ModPoint, ctx: ModContext
) -> bool:
    """True iff some circle with nonzero radius contains all four points.

    The four points need not be distinct.  Exhausts all centers; the
    common squared distance must be an admissible squared radius.
    """
    n = ctx.n
    pts = [ctx.reduce(p) for p in (p1, p2, p3, p4)]
    x0, y0 = pts[0]
    for a in range(n):
        for b in range(n):
            val = ((x0 - a) ** 2 + (y0 - b) ** 2) % n
            if val not in ctx.radius_squares:
                continue
            if all(((x - a) ** 2 + (y - b) ** 2) % n == val for x, y in pts[1:]):
                return True
    return False


def origin_orbits(n: int) -> list[int]:
    """For each point i = (i // n, i % n) of Z_n^2, the bitmask of its orbit
    under the stabilizer of (0, 0) generated by the swap (x, y) -> (y, x),
    the negation (x, y) -> (-x, y), the scalings by units u and the
    rotations [[a, -b], [b, a]] with a^2 + b^2 = 1.

    Each generator multiplies every squared length by a square unit and maps
    lines to lines and circles of nonzero radius to circles of nonzero
    radius, so all three predicates are invariant.  The swap is the
    negation after the rotation by (0, 1), and the negation conjugates a
    rotation to its inverse, so the orbit of (x, y) is the points
    u*R*(x, y) and u*R*(-x, y) over all units u and rotations R.
    """
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    rotations = [(a, b) for a in range(n) for b in range(n) if (a * a + b * b) % n == 1]
    orbits = [0] * (n * n)
    for p in range(n * n):
        if orbits[p]:
            continue
        x, y = divmod(p, n)
        mask = 0
        for a, b in rotations:
            for u, v in ((a * x - b * y, b * x + a * y), (-a * x - b * y, a * y - b * x)):
                if not mask >> (u % n * n + v % n) & 1:
                    for w in units:
                        mask |= 1 << (w * u % n * n + w * v % n)
        rest = mask
        while rest:
            low = rest & -rest
            orbits[low.bit_length() - 1] = mask
            rest ^= low
    return orbits


@dataclass(frozen=True)
class ModSearchResult:
    size: int
    witness: tuple[ModPoint, ...]
    exact: bool
    nodes: int


def mod_max_general_position(n: int, node_budget: Optional[int] = None) -> ModSearchResult:
    """Maximum number of points of Z_n^2 at pairwise integral distances
    with no three collinear and no four on a circle, plus a witness.

    Backtracking clique search over the integral-distance graph with
    incremental line and circle constraints and a best-so-far bound
    (Carraghan and Pardalos 1990).  All predicates are translation
    invariant, so the first point is fixed at (0,0), and invariant under
    the stabilizer of (0,0) (``origin_orbits``), so the second point runs
    over the least point of each orbit only (McKay 1998).  A node is the root
    and each admitted set after it; when ``node_budget`` nodes are
    exhausted the best set found so far is returned flagged as a lower
    bound (``exact=False``); a negative budget raises ``ValueError``.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    ctx = ModContext(n)
    total = n * n  # point i is (i // n, i % n)

    # Translation invariance: two points are adjacent exactly when their
    # difference is one of `near`.  Column v holds the neighbours of (0, v),
    # and those of (u, v) are them rotated by u rows.
    near = [
        (du, dv)
        for du in range(n)
        for dv in range(n)
        if (du or dv) and (du * du + dv * dv) % n in ctx.squares
    ]
    column = [sum(1 << (du * n + (v + dv) % n) for du, dv in near) for v in range(n)]
    full = (1 << total) - 1
    adj = [
        (column[v] << u * n | column[v] >> total - u * n) & full for u in range(n) for v in range(n)
    ]

    line_masks = ctx.line_masks()
    orbits = origin_orbits(n)
    circles = ctx.circles_through
    count = [0] * (total * n)  # chosen points on each circle, by circle key

    # The root fixes (0,0): any nonempty set translates onto it.
    chosen, best, nodes = [0], (0,), 1
    for key in circles(0):
        count[key] += 1
    exhausted = node_budget is not None and nodes > node_budget

    # Depth-first over an explicit stack: stack[i] holds the candidates
    # left below chosen[:i + 1], and its lowest index is taken next.  A
    # level is dropped once its chosen and remaining points cannot beat
    # the best set.  Taking the second point c drops c's whole orbit from
    # its level; c's child keeps the later members.  A set whose least
    # orbit leader is c maps, by an element sending its point of c's orbit
    # to c, onto a set in c's branch.
    stack = [] if exhausted else [adj[0]]
    while stack:
        rest = stack[-1]
        if len(chosen) + rest.bit_count() <= len(best):
            stack.pop()
            for key in circles(chosen.pop()):
                count[key] -= 1
            continue
        low = rest & -rest
        c = low.bit_length() - 1
        stack[-1] = rest & ~orbits[c] if len(stack) == 1 else rest ^ low
        # c lies on a line with chosen p and q exactly when some cyclic
        # subgroup holds both c - p and c - q.
        seen = shared = 0
        for p in chosen:
            mask = line_masks[(c // n - p // n) % n * n + (c - p) % n]
            shared |= seen & mask
            seen |= mask
        if shared or any(count[key] > 2 for key in circles(c)):
            continue
        chosen.append(c)
        for key in circles(c):
            count[key] += 1
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            break
        if len(chosen) > len(best):
            best = tuple(chosen)
        stack.append((rest ^ low) & adj[c])

    witness = tuple(divmod(i, n) for i in best)
    return ModSearchResult(len(best), witness, not exhausted, nodes)
