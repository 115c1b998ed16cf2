"""The relaxed problem over Z_n x Z_n.

Points of the modular plane are at integral distance when the sum of
squared coordinate differences is a square in Z_n; lines are parametric
images {(a + w*t1, b + w*t2)} and circles are solution sets of
(x-a)^2 + (y-b)^2 = r^2 with r != 0.  All three predicates are
invariant under translation and under the stabilizer of (0, 0) that the
swap, the negation of x, unit scalings and the rotations of determinant 1
generate.  The maximum-size search fixes its first point by the former,
and takes its second and its third point one per orbit of the set
stabilizer of {(0, 0), a}, a the last chosen point: the elements of the
latter that fix a and the maps x -> a - g*x.  For the second point that
group is the stabilizer of (0, 0) itself.  The descent argument is in
``mod_max_general_position``.  Every candidate the search holds can join
the chosen points: taking a point removes from its child, by translated
point masks, the points on a line through it and a chosen point and those
on a circle that it fills to three chosen points, found by its centre in
a bitplane per squared radius, so the best-so-far bound counts only
admissible points and nothing is tested when taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .arith import physical_memory

ModPoint = tuple[int, int]


class ModContext:
    """Precomputed structure for one modulus n >= 2.

    ``squares`` is the full set of squares in Z_n (distance values admitted
    by the integral-distance test); ``radius_squares`` the values r^2 for
    r != 0 (admissible squared circle radii, may contain 0 for composite n).
    Only the search needs the incidence structures, as point masks over
    Z_n^2 (bit x*n + y for (x, y)) that ``translate`` moves:
    ``line_masks`` and ``circle_masks`` are built on each call, once per
    search, and nothing is cached.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        self.n = n
        self.squares = frozenset((d * d) % n for d in range(n))
        self.radius_squares = frozenset((r * r) % n for r in range(1, n))
        # _keep[y] holds the columns below n - y of every row, which a shift
        # by y moves up within the row; the others wrap round to its start
        self._full = (1 << n * n) - 1
        rows = self._full // ((1 << n) - 1)
        self._keep = [((1 << n - y) - 1) * rows for y in range(n)]
        self._wrap = [self._full ^ keep for keep in self._keep]

    def reduce(self, p: ModPoint) -> ModPoint:
        return (p[0] % self.n, p[1] % self.n)

    # -- incidence structures for the search -------------------------------

    def translate(self, mask: int, idx: int) -> int:
        """The point mask ``mask`` moved by the point idx = x*n + y: a
        shift of the columns by y within each row, then a rotation of the
        rows by x."""
        n = self.n
        x, y = divmod(idx, n)
        moved = (mask & self._keep[y]) << y | (mask & self._wrap[y]) >> n - y
        return (moved << x * n | moved >> (n - x) * n) & self._full

    def line_masks(self) -> list[int]:
        """For each difference d, the point mask U(d) of the union of the
        cyclic subgroups of Z_n^2 that hold d.

        A line is a coset of a cyclic subgroup <t> (the parametric line
        {(a + w*t1, b + w*t2)}), and <t> holds d exactly when it holds -d.
        So three points p, c, r are collinear exactly when r - c is in
        U(c - p).  Each subgroup is built once, from its least generator:
        its other generators are w*t for the units w of Z_n, as every unit
        modulo the order of t lifts to one modulo n.
        """
        n = self.n
        units = [w for w in range(1, n) if gcd(w, n) == 1]
        masks = [0] * (n * n)
        built = bytearray(n * n)
        for t in range(1, n * n):
            if built[t]:
                continue
            t1, t2 = divmod(t, n)
            members, u1, u2 = [0], t1, t2  # members[w] is w*t
            while u1 or u2:
                members.append(u1 * n + u2)
                u1, u2 = (u1 + t1) % n, (u2 + t2) % n
            for w in units:
                built[members[w % len(members)]] = 1
            mask = sum(1 << i for i in members)
            for i in members:
                masks[i] |= mask
        return masks

    def circle_masks(self) -> list[int]:
        """For each squared radius v, the point mask C[v] of the circle with
        centre (0, 0) and squared radius v, 0 where v is no admissible
        radius.  The circle with centre q is C[v] translated by q; as
        C[v] = -C[v], C[v] translated by p holds the centres of those
        through p."""
        n = self.n
        masks = [0] * n
        for a in range(n):
            for b in range(n):
                v = (a * a + b * b) % n
                if v in self.radius_squares:
                    masks[v] |= 1 << a * n + b
        return masks


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


# an element of the stabilizer of (0, 0) as the matrix rows (g11, g12), (g21, g22)
Matrix = tuple[int, int, int, int]


def stabilizer(n: int) -> list[Matrix]:
    """Every element of the stabilizer of (0, 0) in Z_n^2, each once.

    The stabilizer is generated by the swap (x, y) -> (y, x), the negation
    N: (x, y) -> (-x, y), the scalings by units w and the rotations
    R = [[a, -b], [b, a]] with a^2 + b^2 = 1.  Each generator multiplies
    every squared length by a square unit and maps lines to lines and
    circles of nonzero radius to circles of nonzero radius, so all three
    predicates are invariant.  The swap is N after the rotation by (0, 1),
    and N conjugates a rotation to its inverse, so the elements are the
    products w*R*N^s with s in {0, 1}; the sign s is -1 where N acts.
    """
    units = [w for w in range(1, n) if gcd(w, n) == 1]
    rotations = [(a, b) for a in range(n) for b in range(n) if (a * a + b * b) % n == 1]
    return list(
        {
            (w * s * a % n, -w * b % n, w * s * b % n, w * a % n)
            for w in units
            for a, b in rotations
            for s in (1, -1)
        }
    )


def point_stabilizer(elements: Sequence[Matrix], n: int, c: int) -> list[Matrix]:
    """The elements of ``elements`` that fix the point c = (c // n, c % n)."""
    cx, cy = divmod(c, n)
    return [
        g for g in elements if ((g[0] * cx + g[1] * cy) % n, (g[2] * cx + g[3] * cy) % n) == (cx, cy)
    ]


def pair_orbit(fixing: Sequence[Matrix], n: int, c: int, p: int) -> int:
    """The bitmask of the orbit of the point p under the set stabilizer of
    {(0, 0), c}, where ``fixing`` holds the elements of the stabilizer of
    (0, 0) that fix c (``point_stabilizer``).

    That group is made of the elements g of ``fixing`` and the maps
    x -> c - g*x, which swap (0, 0) and c.  The map s_c: x -> c - x
    commutes with each g, as g*(c - x) = c - g*x, so the orbit of p is the
    points g*p and c - g*p.  For c = (0, 0) and the whole stabilizer as
    ``fixing`` it is the orbit of p under the stabilizer, which holds the
    maps x -> -g*x.
    """
    cx, cy = divmod(c, n)
    x, y = divmod(p, n)
    mask = 0
    for g11, g12, g21, g22 in fixing:
        u, v = (g11 * x + g12 * y) % n, (g21 * x + g22 * y) % n
        mask |= 1 << (u * n + v) | 1 << ((cx - u) % n * n + (cy - v) % n)
    return mask


@dataclass(frozen=True)
class ModSearchResult:
    size: int
    witness: tuple[ModPoint, ...]
    exact: bool
    nodes: int


def mod_max_general_position(n: int, node_budget: Optional[int] = None) -> ModSearchResult:
    """Maximum number of points of Z_n^2 at pairwise integral distances
    with no three collinear and no four on a circle, plus a witness.

    Backtracking clique search over the integral-distance graph with a
    best-so-far bound (Carraghan and Pardalos 1990) that counts only
    admissible points.  When a point c is taken, its child keeps the later
    candidates adjacent to c, less the points on a line through c and a
    chosen point (``line_masks``, translated to c) and those on a circle
    that c fills to three chosen points (``circle_masks``, translated to
    the centre).  So every candidate on the stack can join the chosen
    points, and no test runs when one is taken.

    Circles are tracked by centre: the radius-v circles through c have
    their centres in C[v] translated by c (the hits), and each level keeps
    per v the centres of the circles with at least one and at least two
    chosen points.  c fills to three the hits among the latter.  No circle
    gets a fourth point, as its points leave the child at three.

    The first point is (0,0).  The second and the third point run over
    the least point of each orbit of the set stabilizer H of {(0,0), a},
    where a is the last chosen point (McKay 1998).  Its elements are the g in the stabilizer G of (0,0)
    (``stabilizer``) with g*a = a (``point_stabilizer``) and the maps
    x -> a - g*x (``pair_orbit``).  For the second point a is (0,0) and H
    is G, as x -> -g*x lies in G (-1 is a unit).  Taking a point drops its
    whole H-orbit from its level; its child keeps the later members.
    Deeper levels use no symmetry.

    Why no set is lost.  Let T be in general position and F the sets
    g*(T - p) for p in T and g in G.  Translations and G keep the three
    predicates, so each member of F is in general position, holds (0,0)
    and has its other points among the neighbours of (0,0), the second
    point's candidates.  One step serves both levels.  Let E be a family
    of sets that the level's H maps into itself, each member holding the
    chosen points and its other points among the level's candidates.  Let
    y be the least unchosen point of any member and E_y the members
    holding y.  A point z < y taken before y drops only its H-orbit, and a
    point of a member S of E_y in it would map, by an element h of H, to
    z: h*S is in E and holds z < y.  So each member of E_y is intact when
    y is taken, and its other points are in y's child, which drops no
    point of a general-position set holding the chosen points and y.  G
    maps F into itself, so the step with E = F gives a second point c and
    F_c.  The
    set stabilizer of {(0,0), c} maps F_c into itself: for g in G with
    g*c = c and S in F_c, g*S and c - g*S = (-g)*(S - c) are in F and hold
    c, so they are in F_c.  So the step applies to the third point too,
    and the levels below try every subset of its child.  A level is
    dropped only when its chosen and remaining points cannot beat the best
    set.

    A node is the root and each set taken after it; when
    ``node_budget`` nodes are exhausted the best set found so far is
    returned flagged as a lower bound (``exact=False``); a negative budget
    raises ``ValueError``.

    The adjacency and the line masks hold n^2 bitsets of n^2 bits each, the
    circle masks at most n.  When these 2*n^4 + n^3 bits alone exceed
    physical memory, ``MemoryError`` is raised before any mask is built.
    The estimate leaves out ``ModContext``'s ``_keep`` and ``_wrap``, 2n
    bitsets of n^2 bits, and the circle planes, at most 2n such bitsets per
    stack level (the stack is as deep as the chosen set).
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    bits = 2 * n**4 + n**3
    memory = physical_memory()
    if n >= 2 and memory is not None and bits // 8 > memory:
        raise MemoryError(
            f"the adjacency, line and circle masks of Z_{n}^2 take 2*{n}^4 + {n}^3 bits "
            f"({bits // 8:,} bytes), more than the {memory:,} bytes of physical memory"
        )
    ctx = ModContext(n)
    total = n * n  # point i is (i // n, i % n)

    # Translation invariance: two points are adjacent exactly when their
    # difference is in `near`, and the neighbours of a point are `near`
    # translated to it.
    near = sum(
        1 << du * n + dv
        for du in range(n)
        for dv in range(n)
        if (du or dv) and (du * du + dv * dv) % n in ctx.squares
    )
    translate = ctx.translate
    adj = [translate(near, i) for i in range(total)]

    line_masks = ctx.line_masks()
    circle_masks = [mask for mask in ctx.circle_masks() if mask]
    # groups[i] holds the elements of the stabilizer of (0, 0) that fix
    # chosen[i], for the level below it: (0, 0) and then the second point,
    # whose entry is set when that point is taken
    groups = [stabilizer(n)]

    # The root fixes (0,0): any nonempty set translates onto it.
    chosen, best, nodes = [0], (0,), 1
    exhausted = node_budget is not None and nodes > node_budget

    # Depth-first over an explicit stack: stack[i] holds the candidates
    # left below chosen[:i + 1], each of which can join them, and its lowest
    # index is taken next.  planes[i] holds, for each squared radius, the
    # centres of the circles that hold at least one and at least two of
    # chosen[:i + 1].  A level is dropped once its chosen and remaining
    # points cannot beat the best set.  Taking the second or the third
    # point c drops c's whole orbit (pair_orbit) from its level; c's child
    # keeps the later members.
    stack = [] if exhausted else [adj[0]]
    planes = [(circle_masks, [0] * len(circle_masks))]
    while stack:
        rest = stack[-1]
        if len(chosen) + rest.bit_count() <= len(best):
            stack.pop()
            chosen.pop()
            planes.pop()
            continue
        low = rest & -rest
        c = low.bit_length() - 1
        depth = len(stack)
        if depth > 2:
            stack[-1] = rest ^ low
        else:
            stack[-1] = rest & ~pair_orbit(groups[depth - 1], n, chosen[-1], c)
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            break
        # c's child loses the points on a line through c and a chosen
        # point, and those on a circle that c fills to three chosen points
        lines = 0
        for p in chosen:
            lines |= line_masks[(c // n - p // n) % n * n + (c - p) % n]
        blocked = translate(lines, c)
        ones, twos = [], []
        for base, one, two in zip(circle_masks, *planes[-1]):
            hits = translate(base, c)  # the centres of the circles through c
            full = two & hits
            while full:
                centre = full & -full
                blocked |= translate(base, centre.bit_length() - 1)
                full ^= centre
            ones.append(one | hits)
            twos.append(two | one & hits)
        planes.append((ones, twos))
        chosen.append(c)
        if len(chosen) > len(best):
            best = tuple(chosen)
        if depth == 1:
            groups[1:] = [point_stabilizer(groups[0], n, c)]
        stack.append((rest ^ low) & adj[c] & ~blocked)

    witness = tuple(divmod(i, n) for i in best)
    return ModSearchResult(len(best), witness, not exhausted, nodes)
