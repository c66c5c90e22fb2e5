"""Exact tiling counts, all via Pfaffians of the structured matrices.

Counts come in three families: off-diagonally symmetric tilings of the
boundary-defected odd-order regions (count_off_diag / o_vector), nearly
off-diagonally symmetric tilings of the full odd-order region (count_nearly
and the per-cell d_vector), and off-diagonally symmetric tilings of the full
even-order region (even_order_full).

Every count but count_off_diag and d_entry_bordered is read off one
ladder, a pass over the skew-symmetric Toeplitz matrix X
(`matrices._x_row`): A(n) = P X(n) P^T with P = [D(i - j, j)] (0-based, D
the Delannoy numbers) unit lower triangular, and the doubled Pell column of
B(n + 1) is P (2, ..., 2)^T.  So every leading Pfaffian of A is the leading
Pfaffian of X, and every Pell-bordered one the leading Pfaffian of X
bordered by the constant column 2, and one `pfaffian._ToeplitzPass` over
X(N) bordered by 2 gives every order up to N in O(N^2): its pivots give
even_order_full, its border entries count_nearly, and
`pfaffian._deletion_vector` back-substitutes through its stored steps to
the kernel vector of X(n), which P^(-T) turns into the kernel vector of
A(n) (`_kernel`).  d_vector dots it with Delannoy weights, and o_vector
flips the sign of every other entry, the one sign flip between the ladder
and the deletion counts.  The ladder's per-process memo is its pass of the
largest order asked so far: a request at or below that order reads the
stored steps, a larger one resumes the pass to its own order, so however
the requests arrive no entry is computed twice.  Each kernel vector is
kept once read (`_kernels`), and a scan asks for its largest order first,
which resumes the ladder once.  count_off_diag and d_entry_bordered each
run one fresh `pfaffian._LeadingPass`, over a kept-set block of A and over
A(n) bordered by one cell's Delannoy weights, blocks of A that
`matrices._a_block` builds for each request, and `_o_vector_direct` stays
as the verification route.

Every entry point takes its order through `operator.index` (a float order
raises TypeError) and refuses a request whose condensation order exceeds
`matrices.MAX_ORDER`, through `matrices._check_order`, the check
`_a_block` makes too, both before it builds anything.
"""

from __future__ import annotations

from operator import index, mul, neg

from .matrices import _a_block, _check_order, _x_row, defect_weights
from .paths import delannoy
from .pfaffian import (_deletion_vector, _kept_indices, _LeadingPass,
                       _ToeplitzPass)


def _odd_order(n: int, noun: str) -> int:
    """n as an int, refused unless it is odd and >= 1 and its ladder pass,
    of order n + 1, is within MAX_ORDER; `noun` names the count refused."""
    n = index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"{noun} is defined for odd n >= 1")
    _check_order(n + 1)
    return n


# The ladder's per-process memo: the pass over X(N) bordered by the constant
# column 2 of the largest order N asked so far (resumable, see
# `_ToeplitzPass`), whose rungs are the counts.  Rung m gives
# even_order_full(2m), rung m - 1 count_nearly(2m - 1), and the steps before
# rung m o_vector(2m - 1).  A pass that raises leaves its memo as it was.
_even_nearly_pass = _ToeplitzPass(2)

# The kernel vectors of A(n) read off the ladder so far, keyed by order; a
# scan asks for each order twice (through o_vector and through d_vector).
_kernels: dict[int, tuple[int, ...]] = {}


def _even_nearly(m: int) -> _ToeplitzPass:
    """The ladder's pass over at least X(2m) bordered by the constant column
    2: the memo, or its pass resumed to order 2m."""
    global _even_nearly_pass
    done = _even_nearly_pass
    if done.order < 2 * m:
        done = _even_nearly_pass = done.resume(_x_row(2 * m))
    return done


def count_off_diag(n: int, kept=None) -> int:
    """Off-diagonally symmetric tilings of the order-n region that keeps only
    the given boundary labels (all of them by default).

    The count is the Pfaffian of A's principal block on the kept labels: 0
    for an odd kept set, before anything is built, and otherwise the last
    pivot of one fresh leading pass over the block, which never pivots.  No
    leading pivot is 0: the leading 2t x 2t block is the block of the first
    2t kept labels, so its Pfaffian counts the tilings that keep those
    labels, as non-intersecting path families (Stembridge), and pairing
    consecutive kept sources u_j1 < u_j2 with doublet j1 gives a disjoint
    family, so each such count is at least 1.  A zero pivot would raise
    ArithmeticError rather than give a wrong count.
    """
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_order(n)
    idx = range(n) if kept is None else _kept_indices(kept, n)
    if len(idx) % 2:
        return 0
    return _LeadingPass(_a_block(idx, idx), [0] * len(idx)).pivot


def _o_vector_direct(n: int) -> tuple[int, ...]:
    return tuple(count_off_diag(n, [i for i in range(1, n + 1) if i != k])
                 for k in range(1, n + 1))


def _kernel(n: int) -> tuple[int, ...]:
    """The kernel vector x of A(n), for an odd n that `_odd_order` admits,
    scaled to x_n = even_order_full(n - 1): x_k = (-1)^(k-1) o_k with
    o = o_vector(n).

    `_deletion_vector` back-substitutes through the steps of the ladder's
    pass over X(n + 1), the per-process memo or that pass resumed to order
    n + 1, for the same vector y of X(n); as A(n) = P X(n) P^T,
    x = P^(-T) y, solved through the unit upper triangular
    P^T = [D(j - i, i)] (read off `paths.delannoy`, as `defect_weights`
    reads it), which keeps the scale x_n = y_n.  The vector is kept in
    `_kernels`.  The pass never pivots: its leading pivots are those of
    A(n), the tiling counts even_order_full(2t) > 0, and a zero one would
    raise ArithmeticError rather than give a wrong vector.  So does a
    vector off the kernel of A(n): x must annihilate rows 2..n of A(n).
    Row 1, (0, 2, ..., 2), then holds too: rows 2..n have rank n - 1 when
    o_1, the Pfaffian of their block in columns 2..n, is nonzero (at every
    supported order), so that vector spans the kernel.
    """
    got = _kernels.get(n)
    if got is None:
        x = list(_deletion_vector(_even_nearly((n + 1) // 2), n))
        for i in range(n - 2, -1, -1):
            x[i] -= sum(delannoy(d, i) * v
                        for d, v in enumerate(x[i + 1:], 1))
        if any(sum(map(mul, row, x))
               for row in _a_block(range(1, n), range(n))):
            raise ArithmeticError(f"deletion vector of order {n} is off "
                                  f"the kernel of A({n})")
        got = _kernels[n] = tuple(x)
    return got


def o_vector(n: int) -> tuple[int, ...]:
    """All single-deletion counts (|O(n; [n] minus k)| for k = 1..n), odd n.

    Entry k is the Pfaffian of the odd-order matrix A(n) with row and column
    k deleted, so x_k = (-1)^(k-1) o_k spans the kernel of A(n), with
    x_n = even_order_full(n - 1): `_kernel` solves for x off the ladder,
    and this flips its even-numbered entries.  `_o_vector_direct` computes
    the same vector as n separate Pfaffians, for verification.
    """
    o = list(_kernel(_odd_order(n, "deletion vector")))
    o[1::2] = map(neg, o[1::2])
    return tuple(o)


def count_nearly(n: int) -> int:
    """Nearly off-diagonally symmetric tilings of the full odd-order region.

    This is Pf(B(n + 1)), A(n) bordered by the doubled Pell column, which
    equals Pf of X(n) bordered by the constant column 2: one rung's border
    entry of the ladder, read from the per-process memo or from its pass
    resumed to order n + 1."""
    n = _odd_order(n, "nearly count")
    return _even_nearly((n + 1) // 2).rung((n - 1) // 2)[1]


def d_vector(variant: str, n: int) -> tuple[int, ...]:
    """Per-cell defect counts for odd n: entry k counts the nearly
    off-diagonal tilings whose defect sits at diagonal cell k.

    variant "plus" counts doubled cells, "minus" empty cells, "pm" both.
    """
    return _defect_cells(variant, n, range(1, index(n) + 1))


def _o_entry(n: int, k: int) -> int:
    """Entry k of o_vector(n), with the order and then the label refused
    before the ladder is resumed."""
    n = _odd_order(n, "deletion vector")
    if not 1 <= k <= n:
        raise ValueError(f"label must be within 1..{n}")
    return o_vector(n)[k - 1]


def _defect_cells(variant: str, n: int, cells) -> tuple[int, ...]:
    """Entries k in `cells` of d_vector(variant, n): entry k is
    sum_l w_l x_l = sum_l (-1)^(l-1) w_l o_l over cell k's
    `defect_weights` w and the kernel vector x = `_kernel(n)`, so one cell
    costs n Delannoy weights.  The weights are built first, so a bad
    variant or cell is refused before the ladder is resumed."""
    n = _odd_order(n, "defect vector")
    weights = [defect_weights(variant, n, k) for k in cells]
    x = _kernel(n)
    return tuple(sum(map(mul, w, x)) for w in weights)


def d_entry_bordered(variant: str, n: int, k: int) -> int:
    """Same defect count by the second route: a single bordered Pfaffian,
    of A(n) bordered by cell k's `defect_weights`.

    It is the border entry of the last rung of one fresh pass over A(n)
    with that border column; the pass's leading pivots are
    even_order_full(2t) > 0, as on the ladder."""
    n, k = index(n), index(k)
    _odd_order(n, "defect count")
    weights = defect_weights(variant, n, k)
    return _LeadingPass(_a_block(range(n), range(n)),
                        weights).rung(n // 2)[1]


def even_order_full(n: int) -> int:
    """Off-diagonally symmetric tilings of the full even-order region.

    This is Pf(A(n)) = Pf(X(n)), one rung of the ladder (a leading pivot of
    its pass), read from the per-process memo or from its pass resumed to
    order n."""
    n = index(n)
    if n < 2 or n % 2:
        raise ValueError("full-region count is defined for even n >= 2")
    _check_order(n)
    return _even_nearly(n // 2).rung(n // 2)[0]
