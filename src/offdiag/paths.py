"""Non-intersecting lattice path machinery on a triangular staircase region.

The digraph lives on integer points (-a, b) for 1 <= a <= n, with unit steps
(0,1), (1,0), (1,1).  Distinguished points, all in rotated coordinates:

    x_i = (-i, 0)            row of inner sources
    u_j = (-j, -1)           bottom sources ("full" variant only); from the
                             bottom row only the (0,1) and (1,1) steps exist
    v_l: v_{2j} = (-j, j-1), v_{2j-1} = (-j, j-2)   staircase sinks, paired
                             into doublets (v_{2j-1}, v_{2j})
    w_i = (-n, i-1)          left wall

The "full" variant keeps the bottom row (and with it v_1 = u_1); "reduced"
drops it, so doublets start at index 2.  Path counts, the antisymmetric
doublet kernel Q, and explicit enumeration of vertex-disjoint path families
(with the permutation sign bookkeeping of the Pfaffian method) all live here.

`staircase(n, variant)` is the one graph memo, so each graph is built once.
No step raises a or lowers b, so every point reached from (-a, b) meets the
size bound a <= n and the variant's bottom row bound on b once the source
does: what a source reaches, and every path between two points, is the same
in each staircase graph, full or reduced and of any size, that holds the
points.  So the path counts out of a source (a DP over the topological
order of the graph that first asks) and every path between two points
(walked once, with its vertex mask) are kept in module tables keyed by
point, `_COUNTS` and `_PATHS`, which the first graph to ask for a point
fills for all; a vertex's bit in the masks (`_bit`) does not depend on the
graph either.  Each graph keeps only the counts onto its doublets' lower and
upper points that `q_doublet` pairs, filled on first use.  The family search
is a plain depth-first search.  For each choice of ends it first
lists, slot by slot, the starts with at least one path into the slot's end,
with those path lists; it then fills the slots in order, filtering each path
by disjointness against the mask of the vertices taken so far, and carries
the family's sign as the parity of the inversions placed so far.  A point
off the graph makes `q_doublet`, `enumerate_families`, `count_paths` and, as
a source, `path_counts` raise ValueError.

Also here: `delannoy`, the Delannoy numbers that `matrices` and `counts`
read, filled one diagonal at a time by an exact three-term recurrence whose
division is the package's one checked division, `series._exact`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from operator import index, mul

from .series import _exact

FULL = "full"
REDUCED = "reduced"

Point = tuple[int, int]


# The Delannoy numbers computed so far, one list per diagonal: _DIAGONALS[d]
# holds D(m, m + d) for m = 0, 1, ...
_DIAGONALS: dict[int, list[int]] = {}

# The path counts out of each source asked so far, keyed by the source, and
# every path between two points, keyed by the pair, as (vertex mask, vertex
# tuple) pairs: the same in every staircase graph that holds the points.
_COUNTS: dict[Point, dict[Point, int]] = {}
_PATHS: dict[tuple[Point, Point], list[tuple[int, tuple]]] = {}


def _bit(p: Point) -> int:
    """The vertex (-a, b)'s bit in every path mask, 1 << (a(a+1)/2 + b + 1):
    one bit per vertex of every staircase graph, whatever the graph."""
    a = -p[0]
    return 1 << (a * (a + 1) // 2 + p[1] + 1)


@lru_cache(maxsize=None, typed=True)
def delannoy(p: int, q: int) -> int:
    """Delannoy number: monotone (E, N, NE) paths from (0,0) to (p,q),
    equal to sum_k C(p,k) C(q,k) 2^k.

    A cache miss extends the diagonal through (p, q) in `_DIAGONALS`, in a
    loop from its largest point so far, by the three-term recurrence along
    it, that of the Jacobi polynomials P_q^(0, p-q) at -3:
        2pq(s-2) D(p,q) = (s-1)(3s(s-2) + (p-q)^2) D(p-1,q-1)
                          - 2(p-1)(q-1)s D(p-2,q-2),   s = p + q.
    The division goes through `series._exact`: a remainder, which a wrong
    stored value can leave, raises ArithmeticError ("inexact division")
    instead of being floored into a wrong Delannoy number.

    p and q go through `operator.index`, so a float raises TypeError, and the
    cache is typed, so (3.0, 3) is a key of its own: a float is refused
    whether or not the equal int key is cached, and never enters the cache.
    """
    p, q = index(p), index(q)
    if p < 0 or q < 0:
        return 0
    m, d = min(p, q), abs(p - q)
    diagonal = _DIAGONALS.setdefault(d, [1, 2 * d + 3])
    for k in range(len(diagonal), m + 1):
        s = 2 * k + d
        diagonal.append(_exact(
            (s - 1) * (3 * s * (s - 2) + d * d) * diagonal[-1]
            - 2 * (k - 1) * (k + d - 1) * s * diagonal[-2],
            2 * k * (k + d) * (s - 2)))
    return diagonal[m]


class PathGraph:
    """The staircase digraph of a given size, with its labeled points and
    the tables read off it, each filled on first use (see the module
    docstring); `staircase` keeps one per (n, variant)."""

    def __init__(self, n: int, variant: str = FULL):
        n = index(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        if variant not in (FULL, REDUCED):
            raise ValueError(f"unknown variant {variant!r}")
        self.n = n
        self.variant = variant
        lo = -1 if variant == FULL else 0
        verts = set()
        for a in range(1, n + 1):
            for b in range(lo, a):
                verts.add((-a, b))
        self.vertices = frozenset(verts)
        out = {}
        for p in sorted(verts):
            px, py = p
            steps = ((0, 1), (1, 1)) if py == -1 else ((0, 1), (1, 0), (1, 1))
            out[p] = tuple(
                q for q in sorted((px + dx, py + dy) for dx, dy in steps)
                if q in verts
            )
        self.out = out
        # every step raises x + y, so this order is topological; a path
        # count DP from a source starts at the source's rank in it
        self._order = tuple(sorted(verts, key=lambda p: (p[0] + p[1], p[0])))
        self._rank = {p: r for r, p in enumerate(self._order)}
        self.x = {i: (-i, 0) for i in range(1, n + 1)}
        self.w = {i: (-n, i - 1) for i in range(1, n + 1)}
        self.u = {j: (-j, -1) for j in range(1, n + 1)} if variant == FULL else {}
        first = 1 if variant == FULL else 2
        self.v = {}
        for j in range(1, n + 1):
            if 2 * j - 1 >= 2 * first - 1:
                self.v[2 * j - 1] = (-j, j - 2)
            self.v[2 * j] = (-j, j - 1)
        self.doublet_indices = tuple(range(first, n + 1))
        self.doublets = tuple(
            ((-j, j - 2), (-j, j - 1)) for j in self.doublet_indices
        )
        self._doublet_counts: dict[Point, tuple[tuple[int, ...], ...]] = {}

    def _check_point(self, p: Point) -> None:
        if p not in self._rank:
            raise ValueError(f"point {p} is not on the {self.variant} "
                             f"staircase graph of size {self.n}")

    def path_counts(self, src: Point) -> dict[Point, int]:
        """All path counts out of src, by forward DP in topological order,
        kept in `_COUNTS`.  A source off the graph raises ValueError."""
        self._check_point(src)
        got = _COUNTS.get(src)
        if got is not None:
            return got
        counts = {src: 1}
        out = self.out
        for p in self._order[self._rank[src]:]:
            c = counts.get(p)
            if not c:
                continue
            for q in out[p]:
                counts[q] = counts.get(q, 0) + c
        _COUNTS[src] = counts
        return counts

    def count_paths(self, a: Point, b: Point) -> int:
        """The number of paths a -> b.  A point off the graph raises
        ValueError."""
        self._check_point(b)
        return self.path_counts(a).get(b, 0)

    def doublet_counts(self, src: Point) -> tuple[tuple[int, ...], ...]:
        """The path counts out of src onto each doublet's lower point and
        onto its upper point, as two tuples in doublet order."""
        got = self._doublet_counts.get(src)
        if got is None:
            counts = self.path_counts(src)
            got = (tuple(counts.get(vm, 0) for vm, _ in self.doublets),
                   tuple(counts.get(vp, 0) for _, vp in self.doublets))
            self._doublet_counts[src] = got
        return got

    def _path_list(self, a: Point, b: Point) -> list[tuple[int, tuple]]:
        """Every path a -> b, as (vertex mask, vertex tuple) pairs in
        depth-first order with the out-neighbours taken in sorted order,
        kept in `_PATHS`.  a and b must be on the graph."""
        got = _PATHS.get((a, b))
        if got is not None:
            return got
        found = []
        out = self.out
        bx, by = b

        def walk(p, acc, mask):
            if p == b:
                found.append((mask, acc))
                return
            for q in out[p]:
                if q[0] <= bx and q[1] <= by:
                    walk(q, acc + (q,), mask | _bit(q))

        if a[0] <= bx and a[1] <= by:
            walk(a, (a,), _bit(a))
        _PATHS[a, b] = found
        return found


@lru_cache(maxsize=None, typed=True)
def staircase(n: int, variant: str) -> PathGraph:
    """The one PathGraph of size n and variant, built on the first call,
    so that its tables are filled once for every caller.  The cache is
    typed, so a float n reaches PathGraph, which refuses it."""
    return PathGraph(n, variant)


def q_doublet(g: PathGraph, a: Point, b: Point) -> int:
    """Antisymmetric kernel: sum over doublets of the 2x2 path-count minor.
    A point off the graph raises ValueError."""
    lo_a, hi_a = g.doublet_counts(a)
    lo_b, hi_b = g.doublet_counts(b)
    return sum(map(mul, lo_a, hi_b)) - sum(map(mul, hi_a, lo_b))


class PathFamily(namedtuple("PathFamily", "ends paths connection sign")):
    """One vertex-disjoint path family.

    paths[s] runs from starts[connection[s] - 1] to ends[s]; connection is
    the slot -> start assignment as 1-based indices and sign its permutation
    sign.  A named tuple, the package's one record idiom.
    """

    __slots__ = ()


def enumerate_families(g: PathGraph, starts, fixed_ends=()):
    """All vertex-disjoint path families from `starts` onto admissible ends.

    End slots are the fixed ends (in the given order) followed by free ends
    in ascending staircase order, taken as whole doublets.  Every
    assignment of starts to slots contributes one PathFamily per disjoint
    realization, carrying the permutation sign.  Exhaustive, hence refused
    for n > 8; a start or fixed end off the graph raises ValueError.
    """
    if g.n > 8:
        raise ValueError("family enumeration is exponential; n > 8 refused")
    starts = tuple(starts)
    fixed = tuple(fixed_ends)
    for p in starts + fixed:
        g._check_point(p)
    r, m = len(starts), len(fixed)
    if m > r:
        raise ValueError("more fixed ends than starts")
    free = r - m
    if free % 2:
        end_choices = []
    else:
        end_choices = [
            fixed + tuple(p for d in chosen for p in d)
            for chosen in combinations(g.doublets, free // 2)
        ]

    families = []
    for ends in end_choices:
        if len(set(ends)) < len(ends):
            continue
        _assign(g, starts, ends, families)
    return tuple(families)


def _assign(g, starts, ends, out):
    """Append to `out` every family onto `ends`: slot by slot, each unused
    start and each of its paths into the slot's end that misses the
    vertices taken so far.

    Each slot's candidates, (start index, start bit, path list), are listed
    once, in start order, keeping only the starts with a path into the
    slot's end.  The sign is the parity of the connection's inversions:
    placing start s adds one inversion per used start above s.
    """
    r = len(starts)
    candidates = []
    for end in ends:
        slot = []
        for s, start in enumerate(starts):
            paths = g._path_list(start, end)
            if paths:
                slot.append((s, 1 << s, paths))
        candidates.append(slot)

    def rec(slot, used, occupied, paths, connection, sign):
        if slot == r:
            out.append(PathFamily(ends, paths, connection, sign))
            return
        for s, bit, options in candidates[slot]:
            if used & bit:
                continue
            placed = -sign if (used >> s).bit_count() & 1 else sign
            for mask, path in options:
                if not mask & occupied:
                    rec(slot + 1, used | bit, occupied | mask,
                        paths + (path,), connection + (s + 1,), placed)

    rec(0, 0, 0, (), (), 1)


def signed_family_count(families) -> int:
    return sum(f.sign for f in families)
