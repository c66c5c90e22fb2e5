"""Brute-force tiling oracle: enumerate, census, and render domino tilings.

Squares are named by their integer lower-left corner (a, b).  The order-n
diamond region holds every square with span(a) + span(b) <= n + 1, where
span(c) is the distance from the square to the vertical mirror axis (the
axis runs between columns a = -1 and a = 0).  A square is black when
a + b == n - 1 (mod 2); the n black squares on the southwestern boundary are
labeled 1..n from the bottom, and removing boundary square i means removing
it together with its mirror image.

The diagonal cells are the n two-square-by-two-square blocks along the
mirror axis, numbered bottom to top.  A tiling's profile records, for each
cell, (number of dominoes lying fully inside the cell) - 1.  A mirror
symmetric tiling is off-diagonal when its profile is all zero and nearly
off-diagonal when exactly one cell is nonzero.  Symmetric tilings are built
directly, a domino and its mirror image at a time, not filtered.

One backtracker places dominoes on the first free square.  Its placement
table is built once per call over the whole order-n diamond, and a region
enters it as a start mask that marks the squares it lacks as already
covered: the first free square skips them, and a placement onto one fails
the mask test, so each region's tilings come in the order a table of its
own squares would give.  The generators walk it tiling by tiling (for
render and the path checks); the counters count its tilings with the same
placements, memoized on the occupancy mask (a transfer-matrix count), and
never walk them; `oracle_counts` sweeps all n + 1 of its regions over one
table.  Nothing is kept between calls.  Everything here is exhaustive and
meant as an independent ground truth for the Pfaffian and path counts, so
region sizes are deliberately capped.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from .pfaffian import _kept_indices

Square = tuple[int, int]
Domino = tuple[Square, Square]

# The generators walk every tiling, so they take regions of at most 64
# squares (order 5).  The counters' states grow about fourfold per order;
# order 9 counts all its tilings in under a second on a 2-vCPU VM.
_MAX_SQUARES = 64
_MAX_COUNTED_ORDER = 9


def span(c: int) -> int:
    return c + 1 if c >= 0 else -c


def mirror_square(sq: Square) -> Square:
    a, b = sq
    return (-1 - a, b)


def mirror_domino(d: Domino) -> Domino:
    s, t = d
    return tuple(sorted((mirror_square(s), mirror_square(t))))


def is_black(n: int, sq: Square) -> bool:
    a, b = sq
    return (a + b - n + 1) % 2 == 0


def boundary_square(n: int, i: int) -> Square:
    """The i-th labeled black square on the southwestern boundary."""
    if not 1 <= i <= n:
        raise ValueError(f"label must be within 1..{n}")
    return (-i, i - n - 1)


class Region(namedtuple("Region", "n kept squares")):
    """The order n and the frozensets of kept labels and of squares."""

    __slots__ = ()


def build_region(n: int, kept=None) -> Region:
    """The order-n diamond, minus the boundary squares (and their mirrors)
    whose labels are not kept; labels are refused as the counts refuse them
    (`pfaffian._kept_indices`).  No
    consumer takes an order above _MAX_COUNTED_ORDER, so a larger n is
    refused before a square is built: the build is O(n^2) in time and
    memory."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _MAX_COUNTED_ORDER:
        raise ValueError("region too large for exhaustive enumeration")
    if kept is None:
        kept = range(1, n + 1)
    kept = frozenset(i + 1 for i in _kept_indices(kept, n))
    squares = set(_diamond(n))
    for i in range(1, n + 1):
        if i not in kept:
            sq = boundary_square(n, i)
            squares.discard(sq)
            squares.discard(mirror_square(sq))
    return Region(n=n, kept=kept, squares=frozenset(squares))


def _diamond(n: int) -> list[Square]:
    """The squares of the full order-n diamond, in (a, b) order: square i
    is bit i of every mask over an order-n region."""
    return [(a, b) for a in range(-n, n) for b in range(-n, n)
            if span(a) + span(b) <= n + 1]


def _placement_table(n: int, images) -> list:
    """Each square's placements over the order-n diamond, in (a, b) order:
    the images(d) of its rightward, then its upward domino d that fit the
    diamond, as (bitmask, dominoes)."""
    bit = {sq: 1 << i for i, sq in enumerate(_diamond(n))}
    table = []
    for a, b in bit:
        placements = []
        for d in (((a, b), (a + 1, b)), ((a, b), (a, b + 1))):
            dominoes = images(d)
            covered = [sq for domino in dominoes for sq in domino]
            if all(sq in bit for sq in covered):
                placements.append((sum(bit[sq] for sq in covered), dominoes))
        table.append(placements)
    return table


def _start_mask(region: Region) -> int:
    """The diamond's squares that the region lacks, marked as covered."""
    return sum(1 << i for i, sq in enumerate(_diamond(region.n))
               if sq not in region.squares)


def _first_free(mask: int) -> int:
    return ((mask + 1) & ~mask).bit_length() - 1


def _all_images(d: Domino) -> tuple[Domino, ...]:
    return (d,)


def _mirror_images(d: Domino) -> tuple[Domino, ...]:
    return tuple({d, mirror_domino(d)})


def _backtrack(region: Region, images):
    """Yield the region's tilings: the first free square in (a, b) order is
    covered by each of its placements in turn.  An oversized region is
    refused on the call, before the first tiling is asked for."""
    if len(region.squares) > _MAX_SQUARES:
        raise ValueError("region too large for exhaustive enumeration")
    table = _placement_table(region.n, images)
    full = (1 << len(table)) - 1
    acc = []

    def rec(mask):
        if mask == full:
            yield frozenset(acc)
            return
        for cover, dominoes in table[_first_free(mask)]:
            if not mask & cover:
                acc.extend(dominoes)
                yield from rec(mask | cover)
                del acc[-len(dominoes):]

    return rec(_start_mask(region))


def enumerate_tilings(region: Region):
    """Yield every domino tiling of the region, one domino placed at a time,
    in the fixed order the render CLI's --index refers to."""
    return _backtrack(region, _all_images)


def symmetric_tilings(region: Region):
    """Yield the mirror-symmetric tilings, in enumerate_tilings' order.

    Each domino is placed with its mirror image (a domino crossing the axis
    is its own).  Left-half squares precede right-half ones in (a, b) order,
    so the first free square is always on the left and the right half never
    branches.
    """
    return _backtrack(region, _mirror_images)


def _sweep(table, start: int, step, tag) -> dict:
    """Count _backtrack's tilings from the occupancy mask `start` without
    walking them.

    The backtracker always covers the first free square, so the ways to go
    on from a partial tiling depend on its occupancy mask alone (plus the
    tag `step` keeps).  States are swept forward in order of their first
    free square, and states with the same (mask, tag) merge into one count:
    a transfer-matrix count.  table[i] holds (bitmask, payload) pairs, and
    step(i, tag, payload) gives the tag after that placement on first free
    square i, or None to prune it.  Returns {tag: ways} over the tilings.
    """
    layers = [{} for _ in range(len(table) + 1)]
    layers[_first_free(start)][start, tag] = 1
    for i, placements in enumerate(table):
        for (mask, tag), ways in layers[i].items():
            for cover, payload in placements:
                if mask & cover:
                    continue
                after = step(i, tag, payload)
                if after is None:
                    continue
                key = (mask | cover, after)
                layer = layers[_first_free(key[0])]
                layer[key] = layer.get(key, 0) + ways
        layers[i] = None
    return {tag: ways for (_, tag), ways in layers[-1].items()}


def _check_countable(region: Region) -> None:
    if region.n > _MAX_COUNTED_ORDER:
        raise ValueError(f"the tiling counters take orders up to "
                         f"{_MAX_COUNTED_ORDER}, not {region.n}")


def count_all_tilings(region: Region) -> int:
    """Number of domino tilings of the region, memoized on the occupancy
    mask alone."""
    _check_countable(region)
    table = _placement_table(region.n, _all_images)
    return sum(_sweep(table, _start_mask(region),
                      lambda i, tag, dominoes: tag, 0).values())


def cell_block(n: int, k: int) -> tuple[Square, ...]:
    """The four squares of diagonal cell k (bottom to top, 1-based)."""
    if not 1 <= k <= n:
        raise ValueError(f"cell index must be within 1..{n}")
    r = 2 * k - n - 2
    return ((-1, r), (0, r), (-1, r + 1), (0, r + 1))


def diagonal_profile(region: Region, tiling) -> tuple[int, ...]:
    """Each diagonal cell's count of dominoes inside it, less one."""
    # square (a, b) with a in {-1, 0} lies in cell (b + n + 2)//2
    n = region.n
    profile = [-1] * n
    for (a, b), (c, e) in tiling:
        if -1 <= a <= 0 and -1 <= c <= 0:
            k = (b + n + 2) // 2
            if k == (e + n + 2) // 2 and 1 <= k <= n:
                profile[k - 1] += 1
    return tuple(profile)


class RegionCensus(namedtuple("RegionCensus",
                               "off_diag nearly_plus nearly_minus")):
    """The off-diagonal count, and the nearly off-diagonal counts by defect
    cell for a doubled (plus) and an empty (minus) cell."""

    __slots__ = ()


def _close_cells(cell: int, inside: int, defect, stop: int):
    """Close cells cell..stop-1, the first with `inside` dominoes inside it
    and the rest with none.  Returns the one defect so far, () or (cell,
    sign), or None once a second defect appears."""
    for k in range(cell, stop):
        if inside != 1:
            if defect:
                return None
            defect = (k, inside > 1)
        inside = 0
    return defect


def classify_region_tilings(region: Region) -> RegionCensus:
    """Census of the region's mirror-symmetric tilings by diagonal profile:
    off-diagonal ones, and nearly off-diagonal ones by defect cell and sign.

    Counted like count_all_tilings, with a tag of (next unclosed diagonal
    cell, its inside-domino count so far, the one closed defect or ()).
    Only squares in column a = -1 start a domino inside a cell, and the
    backtracker reaches them bottom to top, so a cell is closed once the
    first free square lies in a later cell; a second defect prunes.
    """
    _check_countable(region)
    return _census(_census_table(region.n), region)


def _census_table(n: int):
    """The census's placement table over the order-n diamond, each
    placement's payload its count of dominoes inside a diagonal cell, and
    each square's diagonal cell (0 off column a = -1)."""
    cells = [(b + n + 2) // 2 if a == -1 else 0 for a, b in _diamond(n)]
    table = []
    for k, placements in zip(cells, _placement_table(n, _mirror_images)):
        block = set(cell_block(n, k)) if k else set()
        table.append([
            (cover, sum(1 for s, t in dominoes if s in block and t in block))
            for cover, dominoes in placements])
    return table, cells


def _census(census_table, region: Region) -> RegionCensus:
    """classify_region_tilings of the region, swept over the census table
    of its order (`_census_table`)."""
    table, cells = census_table
    n = region.n

    def step(i, tag, inside_added):
        k = cells[i]
        if not k:
            return tag
        cell, inside, defect = tag
        if cell < k:
            defect = _close_cells(cell, inside, defect, k)
            if defect is None:
                return None
            inside = 0
        return k, inside + inside_added, defect

    off_diag = 0
    plus = [0] * n
    minus = [0] * n
    swept = _sweep(table, _start_mask(region), step, (1, 0, ()))
    for (cell, inside, defect), ways in swept.items():
        defect = _close_cells(cell, inside, defect, n + 1)
        if defect == ():
            off_diag += ways
        elif defect:
            k, positive = defect
            (plus if positive else minus)[k - 1] += ways
    return RegionCensus(off_diag=off_diag, nearly_plus=tuple(plus),
                        nearly_minus=tuple(minus))


class OracleCounts(namedtuple("OracleCounts", "n off_diag_full o d_plus "
                                             "d_minus d_pm nearly_total")):
    """`oracle_counts(n)`: ints n, off_diag_full and nearly_total, and the
    per-label or per-cell tuples o, d_plus, d_minus and d_pm."""

    __slots__ = ()

    @property
    def total(self) -> int:
        """All tilings of the full region, counted anew on each read."""
        return count_all_tilings(build_region(self.n))


def oracle_counts(n: int) -> OracleCounts:
    """Ground-truth counts for odd n <= 9, by exhaustive census.

    o[k-1] counts the off-diagonally symmetric tilings of the region with
    boundary square k removed; the d vectors count the nearly off-diagonal
    tilings of the full region by defect cell and defect sign.  These count
    the symmetric tilings alone; `total`, counted on each read, counts
    every tiling.  No tiling is walked: all n + 1 regions are swept over
    one census table.
    """
    n = index(n)
    if n < 1 or n % 2 == 0 or n > _MAX_COUNTED_ORDER:
        raise ValueError(
            f"oracle is exhaustive; odd n <= {_MAX_COUNTED_ORDER} only")
    table = _census_table(n)
    full = _census(table, build_region(n))
    o = [_census(table, build_region(n, set(range(1, n + 1)) - {k})).off_diag
         for k in range(1, n + 1)]
    d_pm = tuple(p + m for p, m in zip(full.nearly_plus, full.nearly_minus))
    return OracleCounts(
        n=n,
        off_diag_full=full.off_diag,
        o=tuple(o),
        d_plus=full.nearly_plus,
        d_minus=full.nearly_minus,
        d_pm=d_pm,
        nearly_total=sum(d_pm),
    )


# --- correspondence with the lattice-path picture ---------------------------

# A path's unit steps, each with where its domino puts the black square's
# partner, both as offsets from the black square: a step two squares right
# has its partner on the right, a diagonal step one above or below.
_PARTNER_OF_STEP = {(2, 0): (1, 0), (1, 1): (0, 1), (1, -1): (0, -1)}


def tiling_to_paths(region: Region, tiling) -> dict:
    """Decompose a tiling into its domino chains, one per kept boundary
    square, as paths in rotated coordinates (keyed by boundary label).

    A chain goes on from black square (a, b) by where the domino covering
    it puts its partner: on the right two squares right, above or below
    one square diagonally that way, on the left nowhere; it also stops
    at a square past the axis column or off the region."""
    n = region.n
    squares = region.squares
    partner = {}
    for s, t in tiling:
        partner[s] = t
        partner[t] = s
    paths = {}
    for i in sorted(region.kept):
        # boundary square i; boundary squares are black and every step
        # keeps the colour, so each square (a, b) of the chain is black and
        # has the point ((a - b - n - 1)/2, (a + b + n - 1)/2)
        a, b = -i, i - n - 1
        path = []
        while True:
            path.append(((a - b - n - 1) // 2, (a + b + n - 1) // 2))
            pa, pb = partner[a, b]
            if pa > a:
                a += 2
            elif pb != b:
                a, b = a + 1, pb
            else:
                break
            if a > 0 or (a, b) not in squares:
                break
        paths[i] = tuple(path)
    return paths


def paths_to_tiling(region: Region, paths):
    """Rebuild the mirror-symmetric tiling from its path decomposition, the
    dict that tiling_to_paths returns.

    Inverse of tiling_to_paths for valid families: step dominoes follow the
    paths, endpoints on the axis column become straddling dominoes, every
    remaining black square is paired with the white square on its left, and
    the right half is the mirror image.  An empty path is refused first,
    then a path filed under a label the region does not keep, or one that
    does not start at its label's boundary square.
    """
    for label, path in paths.items():
        if not path:
            raise ValueError(f"path {label!r} is empty")
    n = region.n
    for label, path in paths.items():
        if label not in region.kept:
            raise ValueError(f"label {label!r} is not a kept label")
        if path[0] != (-label, -1):
            # (-i, -1) is the point of boundary_square(n, i)
            x, y = path[0]
            raise ValueError(f"path {label} must start at "
                             f"{boundary_square(n, label)}, got "
                             f"{(1 + x + y, y - x - n)}")
    squares = region.squares
    used_blacks = set()
    left = set()
    for path in paths.values():
        # the inverse of tiling_to_paths' square-to-point map
        blacks = [(1 + x + y, y - x - n) for x, y in path]
        for sq in blacks:
            if sq in used_blacks:
                raise ValueError(f"paths intersect at {sq}")
            used_blacks.add(sq)
        for here, there in zip(blacks, blacks[1:]):
            a, b = here
            partner = _PARTNER_OF_STEP.get((there[0] - a, there[1] - b))
            if partner is None:
                raise ValueError(f"not a unit step: {here} -> {there}")
            other = (a + partner[0], b + partner[1])
            left.add((here, other) if here < other else (other, here))
        a, b = blacks[-1]
        if a == -1:
            left.add(((-1, b), (0, b)))
        elif a != 0:
            raise ValueError(f"path must end on the axis, got {blacks[-1]}")
    black = (n + 1) % 2
    stuck = []
    for sq in squares:
        a, b = sq
        if a > 0 or (a + b) % 2 != black or sq in used_blacks:
            continue
        if (a - 1, b) not in squares:
            stuck.append(sq)
        left.add(((a - 1, b), sq))
    if stuck:
        raise ValueError(f"no room to finish square {min(stuck)}")
    # every domino above is sorted, and the mirror swaps a horizontal
    # domino's squares
    tiling = set(left)
    for (a, b), (c, e) in left:
        tiling.add(((-1 - c, b), (-1 - a, e)) if b == e
                   else ((-1 - a, b), (-1 - c, e)))
    covered = {sq for d in tiling for sq in d}
    if len(covered) != 2 * len(tiling) or covered != squares:
        raise ValueError("paths do not induce a tiling of the region")
    return frozenset(tiling)


# --- rendering ---------------------------------------------------------------

def _frame(region: Region, tiling, unit: int):
    """What render_text and render_svg both place, at `unit` per square and
    from the region's top-left corner, y growing downwards: the region's
    width and height, `box`, which maps a rectangle's lower-left and
    upper-right squares to its (x, y, width, height), and each diagonal
    cell's box with its profile value, bottom to top."""
    squares = region.squares
    amin = min(a for a, _ in squares)
    bmax = max(b for _, b in squares)

    def box(lo, hi):
        (a0, b0), (a1, b1) = lo, hi
        return ((a0 - amin) * unit, (bmax - b1) * unit,
                (a1 - a0 + 1) * unit, (b1 - b0 + 1) * unit)

    _, _, width, height = box((amin, min(b for _, b in squares)),
                              (max(a for a, _ in squares), bmax))
    cells = []
    for k, value in enumerate(diagonal_profile(region, tiling), 1):
        block = cell_block(region.n, k)
        cells.append((box(block[0], block[-1]), value))
    return width, height, box, cells


def _corners(x, y, w, h):
    return (y, x), (y, x + w), (y + h, x), (y + h, x + w)


def render_text(region: Region, tiling) -> str:
    """ASCII picture: domino outlines, # marks at diagonal cell corners, the
    cell values across the axis, and a bottom-to-top value legend."""
    width, height, box, cells = _frame(region, tiling, 2)
    canvas = [[" "] * (width + 1) for _ in range(height + 1)]
    for d in sorted(tiling):
        x, y, w, h = box(*d)
        for c in range(x, x + w + 1):
            canvas[y][c] = canvas[y + h][c] = "-"
        for r in range(y, y + h + 1):
            canvas[r][x] = canvas[r][x + w] = "|"
        for r, c in _corners(x, y, w, h):
            canvas[r][c] = "+"

    def mark(r, c, ch):
        # deleted boundary squares can push cell corners off the canvas
        if 0 <= r <= height and 0 <= c <= width:
            canvas[r][c] = ch

    for (x, y, w, h), value in cells:
        for r, c in _corners(x, y, w, h):
            mark(r, c, "#")
        mark(y + h // 2, x + w // 2,
             "0" if value == 0 else ("+" if value > 0 else "-"))
    lines = ["".join(row).rstrip() for row in canvas]
    legend = "cells bottom to top: " + ", ".join(f"{v:+d}" for _, v in cells)
    return "\n".join(lines) + "\n" + legend + "\n"


def render_svg(region: Region, tiling) -> str:
    """Self-contained SVG: region squares, domino outlines, dashed diagonal
    cells with their values."""
    unit = 24
    w, h, box, cells = _frame(region, tiling, unit)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]
    for sq in sorted(region.squares):
        x, y, _, _ = box(sq, sq)
        fill = "#d8d8d8" if is_black(region.n, sq) else "#f4f4f4"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{unit}" height="{unit}" '
            f'fill="{fill}"/>'
        )
    for d in sorted(tiling):
        x, y, dw, dh = box(*d)
        parts.append(
            f'<rect x="{x + 1}" y="{y + 1}" width="{dw - 2}" height="{dh - 2}" '
            f'rx="4" fill="none" stroke="#222" stroke-width="2"/>'
        )
    for (x, y, cw, ch), value in cells:
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
            f'fill="none" stroke="#c22" stroke-width="1.5" '
            f'stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{x + unit}" y="{y + unit + 5}" font-size="14" '
            f'text-anchor="middle" fill="#c22">{value:+d}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
