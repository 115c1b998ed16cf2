"""The relaxed problem over Z_n x Z_n.

Points of the modular plane are at integral distance when the sum of
squared coordinate differences is a square in Z_n; lines are parametric
images {(a + w*t1, b + w*t2)} and circles are solution sets of
(x-a)^2 + (y-b)^2 = r^2 with r != 0.  All three predicates are
translation invariant, which the maximum-size search exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

ModPoint = tuple[int, int]


class ModContext:
    """Precomputed structure for one modulus n >= 2.

    ``squares`` is the full set of squares in Z_n (distance values allowed
    by the integral-distance test); ``radius_squares`` the values r^2 for
    r != 0 (admissible squared circle radii, may contain 0 for composite n).
    Line and circle incidence structures for the clique search are built
    lazily because only the search needs them.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        self.n = n
        self.squares = frozenset((d * d) % n for d in range(n))
        self.radius_squares = frozenset((r * r) % n for r in range(1, n))
        self._line_masks: Optional[list[int]] = None
        self._circles_through: dict[int, list[int]] = {}

    def reduce(self, p: ModPoint) -> ModPoint:
        return (p[0] % self.n, p[1] % self.n)

    def circle_points(self, a: int, b: int, r: int) -> frozenset[ModPoint]:
        """All points of the circle with center (a, b) and radius r != 0."""
        n = self.n
        if r % n == 0:
            raise ValueError("circle radius must be nonzero")
        rr = (r * r) % n
        return frozenset(
            (x, y)
            for x in range(n)
            for y in range(n)
            if ((x - a) ** 2 + (y - b) ** 2) % n == rr
        )

    # -- lazy incidence structures for the search --------------------------

    def line_masks(self) -> list[int]:
        """For each difference vector, a bitmask of the cyclic subgroups
        of Z_n^2 containing it.

        Three distinct points p, q, r are collinear exactly when q - p and
        r - p lie in one common single-generator subgroup (the direction of
        the parametric line through p).
        """
        if self._line_masks is None:
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
            self._line_masks = masks
        return self._line_masks

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
    incremental line and circle constraints.  All predicates are
    translation invariant, so the first point is fixed at (0,0).  When
    ``node_budget`` search nodes are exhausted the best set found so far
    is returned flagged as a lower bound (``exact=False``); a negative
    budget raises ``ValueError``.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    ctx = ModContext(n)
    total = n * n
    pts = [(u, v) for u in range(n) for v in range(n)]  # index = u*n + v

    adj = [0] * total
    for i in range(total):
        for j in range(i + 1, total):
            if mod_integral_distance(pts[i], pts[j], ctx):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    line_masks = ctx.line_masks()

    def delta_idx(i: int, j: int) -> int:
        ui, vi = pts[i]
        uj, vj = pts[j]
        return ((uj - ui) % n) * n + ((vj - vi) % n)

    circle_count: dict[int, int] = {}
    best_size, best_set = 1, (0,)  # the fixed first point alone
    nodes = 0
    exhausted = False

    chosen: list[int] = []

    def admit(c: int) -> bool:
        for i_pos in range(len(chosen)):
            mi = line_masks[delta_idx(chosen[i_pos], c)]
            for j_pos in range(i_pos + 1, len(chosen)):
                if mi & line_masks[delta_idx(chosen[i_pos], chosen[j_pos])]:
                    return False
        for key in ctx.circles_through(c):
            if circle_count.get(key, 0) >= 3:
                return False
        return True

    def dfs(cands: int) -> None:
        nonlocal best_size, best_set, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            return
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_set = tuple(chosen)
        rest = cands
        while rest:
            if len(chosen) + rest.bit_count() <= best_size:
                return
            c = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not admit(c):
                continue
            chosen.append(c)
            for key in ctx.circles_through(c):
                circle_count[key] = circle_count.get(key, 0) + 1
            dfs(rest & adj[c])
            for key in ctx.circles_through(c):
                circle_count[key] -= 1
            chosen.pop()

    # fix (0,0) as the first point: any nonempty set translates onto it
    chosen.append(0)
    for key in ctx.circles_through(0):
        circle_count[key] = circle_count.get(key, 0) + 1
    all_after = 0
    for i in range(1, total):
        all_after |= 1 << i
    dfs(all_after & adj[0])

    witness = tuple(sorted(pts[i] for i in best_set))
    return ModSearchResult(best_size, witness, not exhausted, nodes)
