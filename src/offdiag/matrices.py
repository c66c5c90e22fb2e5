"""Builders for the structured integer matrices behind the tiling counts.

Everything is exact and kept as tuples of ints; each matrix has one builder,
and the module holds no state: every call builds what it returns.
`MAX_ORDER` bounds the order of A and of every count's condensation, and
`_check_order` is its one check.
The skew-symmetric recurrence matrix A drives the off-diagonal counts via its
Pfaffian; its bordered companion counts the nearly off-diagonal tilings;
A = P X P^T, with P = [delannoy(i - j, j)] the Delannoy matrix and X
skew-symmetric Toeplitz, so the count ladder runs on X's first row
(`_x_row`); the Delannoy weights of each diagonal cell turn the deletion
counts into per-cell defect counts, as the border columns of the defect
counts' verification route, and `_check_cells` is the one check of a
defect variant and its cells; the involutive triangular matrix R is
built from the recurrence array, and verify checks it against the path
kernel (`r_value`).
"""

from __future__ import annotations

from operator import index

from .pfaffian import SkewMatrix, bordered_skew
from .paths import FULL, delannoy, q_doublet, staircase
from . import series


# The largest order of A built, so of any count's condensation; 200 admits
# scans to --n-max 100 and every count to n = 199.  On a 2-vCPU VM the count
# ladder's cold recurrence over X takes about 0.02 s to order 100 and 0.5 s
# to 200, and one fresh condensation of a block of A (count_off_diag, or
# d_entry_bordered with its one border column) about 0.15 s at order 100
# and 9 s at 200.
MAX_ORDER = 200


def _check_order(order: int) -> None:
    """Refuse a condensation, or an A, of order past MAX_ORDER: the one
    check of the bound, for `_a_block` and every count."""
    if order > MAX_ORDER:
        raise ValueError(f"this request needs a condensation of order "
                         f"{order}; the largest supported order is "
                         f"{MAX_ORDER}")


def _a_block(idx) -> list[tuple[int, ...]]:
    """The principal block of A on `idx`, a sequence of increasing 0-based
    indices, so A(n) is `_a_block(range(n))`.  Column j of A's upper
    triangle (a_ij for i < j) is built from column j - 1 by the recurrence,
    up to the largest index asked; an order past MAX_ORDER is refused
    before any column is built."""
    order = idx[-1] + 1 if idx else 0
    _check_order(order)
    a = []
    for j in range(order):
        prev = a[-1] if a else ()
        col = [2] if j else []
        for i in range(1, j):
            col.append(col[i - 1] + prev[i - 1]
                       + (prev[i] if i < j - 1 else 2 * (-1) ** i))
        a.append(col)
    return [tuple(a[j][i] if i < j else -a[i][j] if j < i else 0
                  for j in idx) for i in idx]


def _x_row(n: int) -> list[int]:
    """The first row (0, c_1, ..., c_(n-1)) of X(n), the skew-symmetric
    Toeplitz matrix with x_ij = c_(j-i) for i < j, where
    c_k = 2 (-1)^(k-1) S_(k-1) and S = 1, 2, 6, 22, 90, ... are the large
    Schroeder numbers.  With P = [delannoy(i - j, j)] (0-based, unit lower
    triangular), A(n) = P X(n) P^T and pell_vector(n) = P (2, ..., 2)^T,
    so A and X share every leading Pfaffian, bordered or not."""
    return [0] + [-2 * s if k % 2 else 2 * s
                  for k, s in enumerate(series.schroeder_numbers(n - 1))]


def matrix_a(n: int) -> SkewMatrix:
    """Skew matrix of the three-term recurrence with alternating correction.

    Upper triangle (1-based): first row is all 2s; below that,
    a[i][j] = a[i-1][j] + a[i][j-1] + a[i-1][j-1] away from the diagonal and
    a[i][i+1] = a[i-1][i+1] + a[i-1][i] + 2*(-1)^(i-1) next to it.
    Orders above MAX_ORDER are refused.
    """
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return SkewMatrix(_a_block(range(n)))


def pell_vector(n: int) -> tuple[int, ...]:
    """Doubled Pell numbers 2, 4, 10, 24, 58, ... (each = 2*prev + prev2).

    The k-th number has about 1.27 k bits, so time and memory grow as n^2:
    n = 10**5 takes about 1.2 s and 0.8 GiB on a 2-vCPU VM.  No limit is
    imposed; the counts read at most MAX_ORDER of them.
    """
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    f = [2, 4]
    while len(f) < n:
        f.append(2 * f[-1] + f[-2])
    return tuple(f[:n])


def matrix_b(order: int) -> SkewMatrix:
    """The recurrence matrix of one smaller order, bordered by the doubled
    Pell column; its Pfaffian counts the nearly off-diagonal tilings."""
    order = index(order)
    if order < 2 or order % 2:
        raise ValueError("order must be even and >= 2")
    return bordered_skew(matrix_a(order - 1), pell_vector(order - 1))


def _check_cells(variant: str, n: int, cells) -> None:
    """Refuse an unknown variant, then a diagonal cell outside 1..n: the
    one check of a defect request, for `defect_weights` and for the cells
    that `counts._defect_cells` reads off the ladder."""
    if variant not in ("pm", "minus", "plus"):
        raise ValueError(f"unknown variant {variant!r}")
    for k in cells:
        if not 1 <= k <= n:
            raise ValueError(f"cell index must be within 1..{n}")


def defect_weights(variant: str, n: int, k: int) -> tuple[int, ...]:
    """The unsigned Delannoy weights of diagonal cell k against the deletion
    counts l = 1..n: variant "pm" weighs l by 2*delannoy(l-k, k-1), "minus"
    by 2*delannoy(l-1-k, k-1), the "pm" weight of l - 1; "plus" is their
    difference.  Signed (-1)^(l-1), they are row k of the paper's Delannoy
    matrix equation.  Only the verification route reads them:
    `counts._bordered_cells` borders A with them, while `d_vector` reads
    every variant off the count ladder."""
    _check_cells(variant, n, (k,))
    # delannoy(l-k, k-1) is 0 for l < k
    pm = [0] * (k - 1) + [2 * delannoy(j, k - 1) for j in range(n - k + 1)]
    if variant == "pm":
        return tuple(pm)
    minus = [0] + pm[:-1]
    if variant == "minus":
        return tuple(minus)
    return tuple(p - m for p, m in zip(pm, minus))


def r_value(n: int, i: int, j: int) -> int:
    """Unsigned entry r_{i,j}: the doublet kernel paired between the j-th
    bottom source and the i-th wall point of the full staircase graph."""
    n, i, j = index(n), index(i), index(j)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices must lie in 1..n")
    g = staircase(n, FULL)
    return q_doublet(g, g.u[j], g.w[i])


def matrix_r(n: int) -> tuple[tuple[int, ...], ...]:
    """The signed count-reversal matrix: entry (i,j) is (-1)^(n+j) r_{i,j}.

    It is upper triangular with unit diagonal (up to sign) and squares to the
    identity; applied to an odd-order deletion-count vector it reverses it.
    Built from row n of `t_array`: (i, j) is (-1)^(n+j) t[n-1][j-i] for
    j >= i.  `r_value`, the path kernel, is the verification route.
    """
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    t = t_array(n, n)[n - 1]
    return tuple(
        tuple(0 if j < i else -t[j - i] if (n + j) % 2 else t[j - i]
              for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def g_sequence(count: int) -> tuple[int, ...]:
    """Integer expansion of (1 - y - 3y^2 - y^3) / (1 + y - 3y^2 + y^3)."""
    return series.expand_rational((1, -1, -3, -1), (1, 1, -3, 1), count)


def t_array(nrows: int, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Recurrence array seeded by g_sequence across the top and 1s down the
    left edge: t[i][j] = t[i-1][j-1] + t[i-1][j] + t[i][j-1].

    Entry (i, j) has O(i + j) bits, so time and memory grow as
    nrows * ncols * (nrows + ncols): t_array(1000, 1000) takes about 0.5 s
    and 0.2 GiB on a 2-vCPU VM, and doubling both sides costs about 8 times
    that.  No limit is imposed; `matrix_r(n)` reads t_array(n, n).
    """
    if nrows < 1 or ncols < 1:
        raise ValueError("array dimensions must be >= 1")
    g = g_sequence(ncols)
    rows = [list(g)]
    for _ in range(1, nrows):
        prev = rows[-1]
        row = [1]
        for j in range(1, ncols):
            row.append(prev[j - 1] + prev[j] + row[j - 1])
        rows.append(row)
    return tuple(tuple(r) for r in rows)
