"""Exact Pfaffians of integer skew-symmetric matrices.

Two independent algorithms: a fraction-free condensation that never pivots,
which every count of the package runs on, and a memoized cofactor
expansion, public as the clear verification route and as the Pfaffian of an
arbitrary skew matrix at small orders.  They cross-check each other in the
tests.

`_condense_rows` is the one condensation step and `_LeadingPass` the one
loop over it.  Without pivoting, one pass gives every leading order (the
pivot after step t is the Pfaffian of the leading 2t x 2t block), and a
border column carried along gives the bordered Pfaffian of each odd leading
block; `rung(t)` reads both off the steps the pass stores, and
`_deletion_vector` back-substitutes through them.  `_ToeplitzPass` is the
same pass over a skew-symmetric Toeplitz matrix bordered by a constant
column, with the same steps, built in O(N) per step from the two pivot rows
of the step before; it is kept after it ends, so that a larger matrix
resumes it instead of starting again.  It runs the count ladder, and a
fresh `_LeadingPass(m.rows, column)` every other count.  A zero leading
pivot raises ArithmeticError: every leading pivot the package condenses is
a tiling count, never 0 (see `counts.count_off_diag`).

Also here: one fraction-free (Bareiss) elimination, `_echelon`, for both the
determinant and the rank of an integer matrix, and the bordered-matrix
constructor that `matrices.matrix_b` builds on.  Every division of these
algorithms is exact and goes through the package's one checked helper,
`series._exact`, which raises ArithmeticError ("inexact division") on a
remainder.
"""

from __future__ import annotations

from operator import index, mul

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
    right of its own column, and `rung` and `_deletion_vector` read the
    rows as a step does.  Columns past the matrix's are border columns; the
    same formula carries them along."""
    p = top[1]
    nxt = []
    for k, row in enumerate(rows):
        i = k + 2
        ui, vi = top[i], second[i]
        nxt.append([0] * (k + 1)
                   + [_exact(p * row[j] + vi * top[j] - ui * second[j], prev)
                      for j in range(i + 1, len(row))])
    return nxt


class _LeadingPass:
    """One leading-order condensation pass, never pivoting, over a skew
    matrix bordered by one column, run to its end.

    Without swaps, the pivot after step t is the Pfaffian of the leading
    2t x 2t block of the input (1 for t = 0), and working entry (i, j),
    i < j, is the Pfaffian of that block plus input rows 2t+i and 2t+j (the
    Pfaffian form of Bareiss's leading-minor property); after the first
    step an entry left of a row's own column or on the diagonal is 0.  One
    column past the input's is the border column h, which the same step
    carries along, so working row 0's last entry is the Pfaffian of the
    leading (2t+1) x (2t+1) block bordered by h.  `rung(t)` reads both;
    `_deletion_vector` reads each odd leading block's kernel vector, its
    single-deletion Pfaffians with alternating signs, off the stored steps.

    It holds the input order, each step's divisor and pivot rows (step t
    holds the pivot and working rows 0 and 1 after t steps), the working
    rows left (fewer than two) and the last pivot.  `_LeadingPass(m.rows, h)`
    is the pass over m bordered by h, and `_LeadingPass()` the pass over the
    empty input.  A zero leading pivot raises ArithmeticError.
    """

    __slots__ = ("order", "steps", "rows", "pivot")

    def __init__(self, rows=(), column=()):
        order = len(rows)
        if len(column) != order:
            raise ValueError("column must have one entry per row")
        if any(len(row) != order for row in rows):
            raise ValueError(f"each row must have {order} entries")
        rows = [list(map(index, row)) + [index(h)]
                for row, h in zip(rows, column)]
        steps, pivot = [], 1
        while len(rows) >= 2:
            p = rows[0][1]
            if not p:
                raise ArithmeticError("zero pivot in condensation")
            steps.append((pivot, rows[0], rows[1]))
            rows, pivot = _condense_rows(rows[0], rows[1], rows[2:], pivot), p
        self.order, self.steps = order, tuple(steps)
        self.rows, self.pivot = rows, pivot

    def rung(self, t: int) -> tuple[int, int | None]:
        """(Pf of the input's leading 2t x 2t block, working row 0's border
        entry after t steps) for 0 <= t <= len(self.steps); the border
        entry is None once no row is left."""
        if not 0 <= t <= len(self.steps):
            raise IndexError(f"a pass of {len(self.steps)} steps has no "
                             f"rung {t}")
        if t < len(self.steps):
            return self.steps[t][0], self.steps[t][1][-1]
        return self.pivot, self.rows[0][-1] if self.rows else None


class _ToeplitzPass(_LeadingPass):
    """The `_LeadingPass` over an even-order skew-symmetric Toeplitz matrix
    X bordered by a constant column h, with the same steps, built in O(N)
    per step instead of O(N^2), and kept: it is the memo of every rung it
    passed, and `resume` grows it to a larger X.

    X is fixed by its first row: x_ij = row[j - i] for i < j.  With
    S_t = {0, ..., 2t - 1}, step t holds p_t = Pf X[S_t] and the pivot rows
    r_t(j) = Pf X[S_t + {2t, j}] and s_t(j) = Pf X[S_t + {2t + 1, j}] at
    local column j - 2t, the border's entry last.  Step t + 1 follows from
    step t alone by the Pfaffian Desnanot-Jacobi identity, once as it
    stands and once shifted by one index, which the Toeplitz form allows;
    the constant border maps to itself under the shift, so for the border
    "j - 1" is the border again:
        p_(t+1)    = r_t(2t + 1),   g(k) = s_t(k) - r_t(k - 1),
        q(k)       = s_t(k - 1) + (r_t(2t + 2) g(k) - r_t(k) g(2t + 2))
                                  / p_(t+1)     (= Pf X[S_t + {2t + 2, k}]),
        r_(t+1)(j) = (p_(t+1) (s_t(j - 1) + r_t(j))
                      - r_t(2t + 2) r_t(j - 1)) / p_t,
        s_(t+1)(j) = (p_(t+1) q(j - 1) - r_t(2t + 3) r_t(j - 1)
                      + r_t(j) r_t(2t + 2)) / p_t,
    starting from X's rows 0 and 1 and h.  `_next_step` folds p_(t+1) q
    into one numerator, so each entry costs one exact division by p_t,
    checked; a zero pivot raises ArithmeticError.

    `resume(row)` carries the columns a larger X adds through the stored
    steps and then runs the steps they allow, so no entry is computed
    twice, however the order grows.  A pass is never changed; `resume`
    returns a new one, so a pass that raises leaves the old one as it was.
    """

    __slots__ = ("border",)

    def __init__(self, border):
        super().__init__()
        self.border = index(border)

    def resume(self, row) -> _ToeplitzPass:
        """The pass over the X whose first row is `row`, of even length at
        least this pass's order.  Its first self.order entries must be this
        pass's: step 0, X's rows 0 and 1, is read off `row`, and each later
        stored step keeps the columns it holds.  row[0], on the diagonal,
        is not read."""
        order = len(row)
        if order % 2 or order < self.order:
            raise ValueError(f"a pass of order {self.order} grows to an "
                             f"even order, not {order}")
        row, h = list(map(index, row)), self.border
        steps, pivot = [], 1
        for t in range(order // 2):
            if t:
                known = self.steps[t][1:] if t < len(self.steps) else None
                top, second = _next_step(*steps[-1], known)
            else:
                top, second = row + [h], [-row[1]] + row[:-1] + [h]
            if not top[1]:
                raise ArithmeticError("zero pivot in condensation")
            steps.append((pivot, top, second))
            pivot = top[1]
        grown = _ToeplitzPass(h)
        grown.order, grown.steps, grown.pivot = order, tuple(steps), pivot
        return grown


def _next_step(prev, top, second, known=None) -> tuple[list[int], list[int]]:
    """The pivot rows of the step of a `_ToeplitzPass` after the one with
    divisor `prev` and pivot rows `top` and `second`, by its recursion.

    `known` is that next step's pivot rows at a smaller order, if any: their
    entries are kept, border included, and only the columns they lack are
    computed.  Otherwise the rows start with the zeros left of their own
    columns and on the diagonal, and their border entries are computed."""
    p, a = top[1], top[2]
    c = second[2] - p + top[3]
    if known is None:
        tb, sb = top[-1], second[-1]
        head_top, head_second = [0], [0, 0]
        border = (_exact(p * (sb + tb) - a * tb, prev),
                  _exact((p + a) * sb - c * tb, prev))
    else:
        head_top, head_second = known[0][:-1], known[1][:-1]
        border = known[0][-1], known[1][-1]
    stop = len(top) - 3         # the next step's columns before the border
    return (head_top
            + [_exact(p * (second[j + 1] + top[j + 2]) - a * top[j + 1], prev)
               for j in range(len(head_top), stop)] + [border[0]],
            head_second
            + [_exact(p * second[j] + a * (second[j + 1] - top[j] + top[j + 2])
                      - c * top[j + 1], prev)
               for j in range(len(head_second), stop)] + [border[1]])


def _deletion_vector(done: _LeadingPass, n: int) -> tuple[int, ...]:
    """The kernel vector x of the leading n x n block of the input of
    `done` (odd n <= done.order) whose last entry is rung t's pivot,
    back-substituted through its steps.

    With n = 2t + 1, x_k = (-1)^k Pf(block minus k) (0-based k) spans the
    block's kernel, as rung t's pivot (the leading 2t x 2t Pfaffian) is
    nonzero, and x_{n-1} is that pivot.  Step s's pivot rows are rows of the
    Schur complement of the leading 2s x 2s block scaled by its Pfaffian,
    so orthogonal to x past column 2s; with p = top[1], for s = t-1 .. 0,
        x_{2s+1} = -sum_{j>=2} top[j] x_{2s+j} / p,
        x_{2s}   =  sum_{j>=2} second[j] x_{2s+j} / p   (2s + j < n).
    The x_k are integers, so an inexact division raises ArithmeticError.
    """
    if n % 2 == 0 or not 0 < n <= done.order:
        raise ValueError(f"no odd leading block of order {n} in the pass")
    t = n // 2
    x = [0] * (n - 1) + [done.rung(t)[0]]
    for s in range(t - 1, -1, -1):
        _, top, second = done.steps[s]
        p, tail, stop = top[1], x[2 * s + 2:], n - 2 * s
        for k, num in ((2 * s + 1, -sum(map(mul, top[2:stop], tail))),
                       (2 * s, sum(map(mul, second[2:stop], tail)))):
            x[k] = _exact(num, p)
    return tuple(x)


def bordered_skew(q: SkewMatrix, column) -> SkewMatrix:
    """The order n+1 skew matrix [[Q, h], [-h^T, 0]] for the border column
    h; for odd n its Pfaffian is sum_k (-1)^(k-1) h_k Pf(Q minus k)."""
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
