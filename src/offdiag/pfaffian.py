"""Exact Pfaffians of integer skew-symmetric matrices.

Two independent algorithms: a fraction-free condensation that never pivots,
which every count off the count ladder runs on, and a memoized cofactor
expansion, public as the clear verification route and as the Pfaffian of an
arbitrary skew matrix at small orders.  They cross-check each other in the
tests.

`_condense_rows` is the one condensation step and `_leading_rungs` the one
loop over it.  Without pivoting, one pass gives every leading order (the
pivot after step t is the Pfaffian of the leading 2t x 2t block), and each
border column carried along gives the bordered Pfaffian of each odd leading
block; the pass returns both at every t and keeps no step's rows.  No pivot
reads a border column, and each column is carried by the same formula on
its own, so any number of border columns cost one pass.  A fresh
`_leading_rungs(m.rows, *columns)` runs the counts that the count ladder
(`counts._ladder`) does not give: a kept-set block of A with no border
column, A bordered by the Delannoy weights of every cell asked, and the
verification route's A bordered by every unit column.  A zero leading pivot
raises ArithmeticError: every leading pivot the package condenses is a
tiling count, never 0 (see `counts.count_off_diag`).

Also here: one fraction-free (Bareiss) elimination, `_echelon`, for both the
determinant and the rank of an integer matrix, and the bordered-matrix
constructor that `matrices.matrix_b` builds on.  Every division of these
algorithms is exact and goes through the package's one checked helper,
`series._exact`, which raises ArithmeticError ("inexact division") on a
remainder.
"""

from __future__ import annotations

from operator import index

from .series import _exact


class SkewMatrix:
    """An integer skew-symmetric matrix, validated on construction."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(map(index, row)) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            if rows[i][i] != 0:
                raise ValueError(f"nonzero diagonal entry at {i}")
            for j in range(i + 1, n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError(f"not skew-symmetric at ({i},{j})")
        self.rows = rows

    @property
    def order(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, SkewMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SkewMatrix({list(map(list, self.rows))})"


def principal_submatrix(m: SkewMatrix, keep) -> SkewMatrix:
    """Principal submatrix on the 1-based labels in `keep` (any order),
    taken through `operator.index`.

    An empty `keep` gives the empty matrix, whose Pfaffian is 1."""
    idx0 = _kept_indices(keep, m.order)
    return SkewMatrix(tuple(tuple(m.rows[i][j] for j in idx0) for i in idx0))


def _kept_indices(keep, order: int) -> list[int]:
    """The sorted 0-based indices of the labels `keep` for a matrix or
    region of the given order, refusing repeated or outside labels: the one
    check of kept labels, for principal_submatrix, count_off_diag and
    oracle.build_region."""
    idx = sorted(map(index, keep))
    if len(set(idx)) < len(idx):
        raise ValueError(f"kept labels repeat: {idx}")
    if idx and (idx[0] < 1 or idx[-1] > order):
        raise ValueError(f"labels must be within 1..{order}")
    return [k - 1 for k in idx]


def pfaffian_cofactor(m: SkewMatrix) -> int:
    """Pfaffian by expansion along the last row/column, memoized on the
    surviving index set."""
    if m.order % 2:
        return 0
    rows = m.rows
    cache: dict[tuple[int, ...], int] = {}

    def pf(idx: tuple[int, ...]) -> int:
        if not idx:
            return 1
        got = cache.get(idx)
        if got is not None:
            return got
        last = idx[-1]
        rest = idx[:-1]
        total = 0
        for pos, k in enumerate(rest):
            entry = rows[k][last]
            if entry:
                term = entry * pf(rest[:pos] + rest[pos + 1:])
                total += term if pos % 2 == 0 else -term
        cache[idx] = total
        return total

    return pf(tuple(range(m.order)))


def _condense_rows(top, second, rows, prev) -> list[list[int]]:
    """One condensation step on the working rows `rows`, which sit at
    columns 2, 3, ... of the pivot rows `top` and `second`:
    new_ij = (p * a_ij + a_1i * a_0j - a_0i * a_1j) / prev for i, j >= 2,
    where p = a_01 and prev is the previous step's pivot.

    Each row computes its entries right of its own column, and writes 0 in
    the columns of the rows before it and on the diagonal, where no reader
    looks: a step reads the pivot rows from column 1 on and a working row
    right of its own column, and a rung only row 0's border entries.
    Columns past the matrix's are border columns; the same formula carries
    them along."""
    p = top[1]
    nxt = []
    for k, row in enumerate(rows):
        i = k + 2
        ui, vi = top[i], second[i]
        nxt.append([0] * (k + 1)
                   + [_exact(p * row[j] + vi * top[j] - ui * second[j], prev)
                      for j in range(i + 1, len(row))])
    return nxt


def _leading_rungs(rows, *columns) -> list[tuple[int | None, ...]]:
    """The rungs of one leading-order condensation pass, never pivoting,
    over the square integer `rows` bordered by the `columns`, run to its
    end: for t = 0..len(rows)//2, (Pf of the leading 2t x 2t block, then
    working row 0's entry in each border column after t steps), each entry
    None once no row is left.

    Without swaps, the pivot after step t is the Pfaffian of the leading
    2t x 2t block of the input (1 for t = 0), and working entry (i, j),
    i < j, is the Pfaffian of that block plus input rows 2t+i and 2t+j (the
    Pfaffian form of Bareiss's leading-minor property); after the first
    step an entry left of a row's own column or on the diagonal is 0.  The
    columns past the input's are the border columns h, which the same step
    carries along, each on its own, so working row 0's entry in h is the
    Pfaffian of the leading (2t+1) x (2t+1) block bordered by h.  With one
    column a rung is (pivot, entry); with none it is (pivot,).  The empty
    input with one empty column gives [(1, None)].  A zero leading pivot
    raises ArithmeticError.
    """
    order = len(rows)
    if any(len(column) != order for column in columns):
        raise ValueError("column must have one entry per row")
    if any(len(row) != order for row in rows):
        raise ValueError(f"each row must have {order} entries")
    rows = [[*map(index, row), *map(index, border)]
            for row, *border in zip(rows, *columns)]
    rungs, pivot = [], 1
    # the working rows are as many as the matrix columns left, so a row's
    # border entries start at len(rows)
    while len(rows) >= 2:
        p = rows[0][1]
        if not p:
            raise ArithmeticError("zero pivot in condensation")
        rungs.append((pivot, *rows[0][len(rows):]))
        rows, pivot = _condense_rows(rows[0], rows[1], rows[2:], pivot), p
    rungs.append((pivot, *(rows[0][1:] if rows else [None] * len(columns))))
    return rungs


def bordered_skew(q: SkewMatrix, column) -> SkewMatrix:
    """The order n+1 skew matrix [[Q, h], [-h^T, 0]] for the border column
    h; for odd n its Pfaffian is sum_k (-1)^(k-1) h_k Pf(Q minus k), so
    the unit column e_k gives (-1)^(k-1) Pf(Q minus k)."""
    col = tuple(map(index, column))
    if len(col) != q.order:
        raise ValueError("border column length must match matrix order")
    return SkewMatrix([row + (e,) for row, e in zip(q.rows, col)]
                      + [tuple(-e for e in col) + (0,)])


def _echelon(rows) -> tuple[int, int, int]:
    """Row echelon elimination of an integer matrix, fraction-free (Bareiss).

    A column with a nonzero entry at or below the current row is a pivot
    column: that row is swapped up, and each row below becomes
    (p * row_i - row_i[col] * pivot_row) / p_prev, p being the new pivot and
    p_prev the last one (1 at the start); other columns are skipped.  The
    working entries are minors of the input, so every division is exact.
    Returns (rank, sign of the row swaps, last pivot); for a square matrix
    of full rank, sign * last pivot is the determinant.
    """
    a = [list(map(index, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for row in a[rank + 1:]:
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = _exact(p * row[j] - f * top[j], prev)
        prev = p
        rank += 1
    return rank, sign, prev


def determinant(rows) -> int:
    """Exact determinant of an integer matrix, from `_echelon`."""
    rows = tuple(rows)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    rank, sign, pivot = _echelon(rows)
    return sign * pivot if rank == len(rows) else 0


def rational_rank(rows) -> int:
    """Exact rank over the rationals of an integer matrix, from `_echelon`."""
    return _echelon(rows)[0]
