"""Exact tiling counts, all via Pfaffians of the structured matrices.

Counts come in three families: off-diagonally symmetric tilings of the
boundary-defected odd-order regions (count_off_diag / o_vector), nearly
off-diagonally symmetric tilings of the full odd-order region (count_nearly
and the per-cell d_vector), and off-diagonally symmetric tilings of the full
even-order region (even_order_full).

The counts form two ladders, each read off one condensation pass of A(N):
A(n) is the leading n x n block of A(N) and the doubled Pell column of B(n+1)
is a prefix of the one for A(N), so by the leading-minor property one pass
gives every order up to N.  The Pell-bordered pass serves even_order_full
and count_nearly, the deletion pass (the symbolic border of
`pfaffian._unit_border`, read by `pfaffian._deletion_rung`) serves o_vector
and, through it, d_vector.  Both are passes of `pfaffian._LeadingPass`, the
one leading-order pass, and each ladder's per-process memo is its pass of
the largest order asked so far: a request at or below that order reads its
rung off the steps the pass stores (`_LeadingPass.rung`), a larger one
resumes the pass to its own order.  No entry is condensed twice, so however
the requests arrive the memo does at most the work of one pass at the
largest order asked; both ladders read the rows they add off one build of A
kept at a power-of-two order (`_a_rows`).  A scan asks for its largest order
first, which resumes the ladder once, and then reads every order's rung
through these same functions.
`pfaffian` itself serves only count_off_diag and d_entry_bordered, and
`_o_vector_direct` stays as the verification route.

Every entry point takes its order through `operator.index` (a float order
raises TypeError) and refuses a request whose condensation order exceeds
`MAX_ORDER`, both before it builds anything.
"""

from __future__ import annotations

from operator import index, mul, neg

from .matrices import defect_weights, matrix_a, pell_vector
from .pfaffian import (
    _deletion_rung,
    _LeadingPass,
    _unit_border,
    bordered_skew,
    pfaffian,
    principal_submatrix,
)

# The largest condensation order any count builds; 200 admits scans to
# --n-max 100 and every single count to n = 199.  On a 2-vCPU VM a cold
# Pell-bordered pass (even_order_full, count_nearly) costs about 0.3 s at
# order 100, 3 s at 150 and 17 s at 200, and a cold deletion pass (o_vector,
# d_vector), whose symbolic border adds n columns to each row, about 14 s at
# order 149 and 84 s at 199.
MAX_ORDER = 200


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise ValueError(f"this request needs a condensation of order "
                         f"{order}; the largest supported order is "
                         f"{MAX_ORDER}")


# Each ladder's per-process memo: the pass of the largest order asked so far
# (resumable, see `_LeadingPass`), whose rungs are the counts.  Rung m of the
# first ladder's pass gives even_order_full(2m) and rung m - 1
# count_nearly(2m - 1); rung t of the second's gives o_vector(2t + 1).  A
# pass that raises leaves its memo as it was.
_even_nearly_pass = _LeadingPass()
_deletion_pass = _LeadingPass()

# The upper triangle of the largest A built for the ladders so far (row i
# holds a_ij for j > i), of a power-of-two order at most MAX_ORDER.  A grown
# ladder reads its added rows off it, so the matrices built cost about one
# build at the largest order asked, however the requests arrive.
_a_upper: tuple[tuple[int, ...], ...] = ()


def _a_rows(start: int, stop: int) -> list[tuple[int, ...]]:
    """Rows start..stop-1 of matrix_a(stop), read off `_a_upper`."""
    global _a_upper
    if len(_a_upper) < stop:
        a = matrix_a(min(1 << (stop - 1).bit_length(), MAX_ORDER))
        _a_upper = tuple(row[i + 1:] for i, row in enumerate(a.rows))
    upper = _a_upper
    return [tuple(-upper[j][i - j - 1] for j in range(i)) + (0,)
            + upper[i][:stop - i - 1] for i in range(start, stop)]


def _even_nearly(m: int) -> _LeadingPass:
    """The Pell-bordered ladder's pass over at least A(2m) bordered by the
    doubled Pell column: the memo, or its pass resumed to order 2m.

    Rung m gives Pf(A(2m)); rung m - 1's border entry is Pf(B(2m)), the
    nearly count of order 2m - 1.
    """
    global _even_nearly_pass
    done = _even_nearly_pass
    if done.order < 2 * m:
        pell = pell_vector(2 * m)[done.order:]
        done = _even_nearly_pass = done.resume(
            _a_rows(done.order, 2 * m), [(h,) for h in pell])
    return done


def _deletions(n: int) -> _LeadingPass:
    """The deletion ladder's pass over at least A(n) (odd n) carrying the
    symbolic deletion border: the memo, or its pass resumed to order n.

    Rung t, read by `_deletion_rung`, gives o_vector(2t + 1)."""
    global _deletion_pass
    done = _deletion_pass
    if done.order < n:
        done = _deletion_pass = done.resume(_a_rows(done.order, n),
                                            _unit_border(n, done.order))
    return done


def count_off_diag(n: int, kept=None) -> int:
    """Off-diagonally symmetric tilings of the order-n region that keeps only
    the given boundary labels (all of them by default)."""
    n = index(n)
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
    k deleted; all n of them are rung (n - 1) / 2 of the deletion ladder's
    pass (a `_LeadingPass` with the symbolic border of `_unit_border`, read
    by `_deletion_rung`), the per-process memo or that pass resumed to order
    n.  That pass never pivots: the leading pivots of A(n) are the tiling
    counts even_order_full(2t) > 0, and a zero one would raise
    ArithmeticError rather than give a wrong vector.
    `_o_vector_direct` computes the same vector as n separate Pfaffians, for
    verification.
    """
    n = index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError("deletion vector is defined for odd n >= 1")
    _check_order(n)
    t = (n - 1) // 2
    return _deletion_rung(t, _deletions(n).rung(t)[1])


def count_nearly(n: int) -> int:
    """Nearly off-diagonally symmetric tilings of the full odd-order region.

    This is Pf(B(n + 1)), one rung of the Pell-bordered ladder, read from the
    per-process memo or from its pass resumed to order n + 1."""
    n = index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError("nearly count is defined for odd n >= 1")
    _check_order(n + 1)
    return _even_nearly((n + 1) // 2).rung((n - 1) // 2)[1][0]


def d_vector(variant: str, n: int) -> tuple[int, ...]:
    """Per-cell defect counts for odd n: entry k counts the nearly
    off-diagonal tilings whose defect sits at diagonal cell k.

    variant "plus" counts doubled cells, "minus" empty cells, "pm" both.
    """
    return _defect_cells(variant, n, range(1, index(n) + 1))


def _defect_cells(variant: str, n: int, cells) -> tuple[int, ...]:
    """Entries k in `cells` of d_vector(variant, n): entry k is
    sum_l (-1)^(l-1) w_l o_l over cell k's `defect_weights` w and
    o = o_vector(n), so one cell costs n Delannoy weights.  The weights
    are built first, so a bad variant or cell is refused before the
    deletion pass runs."""
    n = index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError("defect vector is defined for odd n >= 1")
    _check_order(n)
    weights = [defect_weights(variant, n, k) for k in cells]
    signed = list(o_vector(n))
    signed[1::2] = map(neg, signed[1::2])
    return tuple(sum(map(mul, w, signed)) for w in weights)


def d_entry_bordered(variant: str, n: int, k: int) -> int:
    """Same defect count by the second route: a single bordered Pfaffian."""
    n, k = index(n), index(k)
    if n < 1 or n % 2 == 0:
        raise ValueError("defect count is defined for odd n >= 1")
    _check_order(n + 1)
    weights = defect_weights(variant, n, k)
    return pfaffian(bordered_skew(matrix_a(n), weights))


def even_order_full(n: int) -> int:
    """Off-diagonally symmetric tilings of the full even-order region.

    This is Pf(A(n)), one rung of the Pell-bordered ladder (a leading pivot
    of its pass), read from the per-process memo or from its pass resumed to
    order n."""
    n = index(n)
    if n < 2 or n % 2:
        raise ValueError("full-region count is defined for even n >= 2")
    _check_order(n)
    return _even_nearly(n // 2).rung(n // 2)[0]
