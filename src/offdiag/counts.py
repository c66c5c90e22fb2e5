"""Exact tiling counts, all via Pfaffians of the structured matrices.

Counts come in three families: off-diagonally symmetric tilings of the
boundary-defected odd-order regions (count_off_diag / o_vector), nearly
off-diagonally symmetric tilings of the full odd-order region (count_nearly
and the per-cell d_vector), and off-diagonally symmetric tilings of the full
even-order region (even_order_full).

The scans need every order up to a bound; `even_and_nearly_counts` and
`o_vectors` read them all off one condensation pass (`leading_pfaffians`).
Every entry point refuses a request whose condensation order exceeds
`MAX_ORDER` before it builds anything.
"""

from __future__ import annotations

from .matrices import matrix_a, matrix_b, matrix_m, pell_vector
from .paths import delannoy
from .pfaffian import (
    bordered_skew,
    leading_deletion_pfaffians,
    leading_pfaffians,
    pfaffian,
    principal_submatrix,
)

# The largest condensation order any count builds.  One condensation costs
# about 0.3 s at order 100, 3 s at 150 and 17 s at 200 on a 2-vCPU VM; 200
# admits scans to --n-max 100 and every single count to n = 199.
MAX_ORDER = 200


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise ValueError(f"this request needs a condensation of order "
                         f"{order}; the largest supported order is "
                         f"{MAX_ORDER}")


def count_off_diag(n: int, kept=None) -> int:
    """Off-diagonally symmetric tilings of the order-n region that keeps only
    the given boundary labels (all of them by default)."""
    _check_order(n)
    a = matrix_a(n)
    return pfaffian(a if kept is None else principal_submatrix(a, kept))


def _o_vector_direct(n: int) -> tuple[int, ...]:
    a = matrix_a(n)
    return tuple(
        pfaffian(principal_submatrix(a, [i for i in range(1, n + 1) if i != k]))
        for k in range(1, n + 1)
    )


def o_vector(n: int) -> tuple[int, ...]:
    """All single-deletion counts (|O(n; [n] minus k)| for k = 1..n), odd n.

    Entry k is the Pfaffian of the odd-order matrix A(n) with row and column
    k deleted; all n of them are the last rung of one bordered condensation
    (`leading_deletion_pfaffians`).  That pass never pivots: the leading
    pivots of A(n) are the tiling counts even_order_full(2t) > 0, and a zero
    one would raise ArithmeticError rather than give a wrong vector.
    `_o_vector_direct` computes the same vector as n separate Pfaffians, for
    verification.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("deletion vector is defined for odd n >= 1")
    _check_order(n)
    *_, last = leading_deletion_pfaffians(matrix_a(n))
    return last


def count_nearly(n: int) -> int:
    """Nearly off-diagonally symmetric tilings of the full odd-order region."""
    if n < 1 or n % 2 == 0:
        raise ValueError("nearly count is defined for odd n >= 1")
    _check_order(n + 1)
    return pfaffian(matrix_b(n + 1))


def d_vector(variant: str, n: int) -> tuple[int, ...]:
    """Per-cell defect counts for odd n: entry k counts the nearly
    off-diagonal tilings whose defect sits at diagonal cell k.

    variant "plus" counts doubled cells, "minus" empty cells, "pm" both.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("defect vector is defined for odd n >= 1")
    return _defect_vector(variant, n, o_vector(n))


def _defect_vector(variant: str, n: int, o) -> tuple[int, ...]:
    """`d_vector` from an already computed deletion vector o = o_vector(n)."""
    m = matrix_m(variant, n)
    return tuple(sum(row[l] * o[l] for l in range(n)) for row in m)


def d_entry_bordered(variant: str, n: int, k: int) -> int:
    """Same defect count by the second route: a single bordered Pfaffian."""
    if n < 1 or n % 2 == 0:
        raise ValueError("defect count is defined for odd n >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"cell index must be within 1..{n}")
    if variant not in ("pm", "minus", "plus"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_order(n + 1)

    def column(kind):
        if kind == "pm":
            return [2 * delannoy(i - k, k - 1) for i in range(1, n + 1)]
        return [2 * delannoy(i - k - 1, k - 1) for i in range(1, n + 1)]

    if variant == "plus":
        col = [p - m for p, m in zip(column("pm"), column("minus"))]
    else:
        col = column(variant)
    return pfaffian(bordered_skew(matrix_a(n), col))


def even_order_full(n: int) -> int:
    """Off-diagonally symmetric tilings of the full even-order region."""
    if n < 2 or n % 2:
        raise ValueError("full-region count is defined for even n >= 2")
    _check_order(n)
    return pfaffian(matrix_a(n))


def even_and_nearly_counts(m_max: int) -> list[tuple[int, int]]:
    """(even_order_full(2m), count_nearly(2m - 1)) for m = 1..m_max, from
    one condensation of A(2 m_max) bordered by the doubled Pell column.

    The pivot after step m is Pf(A(2m)); before step m, working row 0's
    border entry is Pf(B(2m)), the nearly count of order 2m - 1.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    order = 2 * m_max
    _check_order(order)
    steps = list(leading_pfaffians(matrix_a(order),
                                   [(h,) for h in pell_vector(order)]))
    return [(steps[m][0], steps[m - 1][1][0]) for m in range(1, m_max + 1)]


def o_vectors(n: int) -> list[tuple[int, ...]]:
    """o_vector(k) for every odd k <= n (odd n), from one condensation of
    A(n) carrying the symbolic deletion border."""
    if n < 1 or n % 2 == 0:
        raise ValueError("deletion vector is defined for odd n >= 1")
    _check_order(n)
    return list(leading_deletion_pfaffians(matrix_a(n)))
