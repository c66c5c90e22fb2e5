"""Exact tiling counts, all via Pfaffians of the structured matrices.

Counts come in three families: off-diagonally symmetric tilings of the
boundary-defected odd-order regions (count_off_diag / o_vector), nearly
off-diagonally symmetric tilings of the full odd-order region (count_nearly
and the per-cell d_vector), and off-diagonally symmetric tilings of the full
even-order region (even_order_full).

Every count but d_entry_bordered, and count_off_diag of a kept set other
than {1, ..., 2t}, is read off one ladder over the skew-symmetric Toeplitz
matrix X (`matrices._x_row`): A(n) = P X(n) P^T with P = [D(i - j, j)]
(0-based, D the Delannoy numbers) unit lower triangular, and the doubled
Pell column of B(n + 1) is P (2, ..., 2)^T.  So every leading Pfaffian of A
is the leading Pfaffian of X, and every Pell-bordered one the leading
Pfaffian of X bordered by the constant column 2.  Rung t of the ladder is
y_t, the kernel vector of X(2t + 1) whose end entries are p_t = Pf X(2t):
p_t is even_order_full(2t), 2 * sum(y_t) is count_nearly(2t + 1), 2 y_t is
d_vector("pm", 2t + 1), and P^(-T) y_t is the kernel vector of A(2t + 1)
(`_kernel`, solved with additions only by `_solve_delannoy` and checked
against A).  o_vector turns it into the deletion counts by the one sign
flip between the ladder and them.  The "minus" d_vector is y_t times X's
first row c(z), truncated to 2t + 1 terms, and "plus" is 2 y_t minus it, so
the ladder keeps the row its last extension read (`_row`), and no count
read off the ladder reads a Delannoy number.  Each rung follows from the
two before it by a three-term recurrence in O(t) entries (`_rung`, which
derives it).  The ladder's per-process memo is its rungs so far: a request
at or below the top rung reads them, and a larger one extends them from the
last two to the rung it needs, so however the requests arrive no rung is
built twice.  Each kernel vector of A is kept once read (`_kernels`), and a
scan asks for its largest order first, which extends the ladder once.
count_off_diag of a kept set {1, ..., m} minus one label k, m odd, reads
entry k of o_vector(m) (`_o_entry`); of any other kept set, the last pivot
of one fresh condensation pass (`pfaffian._leading_rungs`) over that block
of A.  A pass carries any number of border columns at the cost of one, so
`_o_vector_direct` reads the deletion counts off one pass over A(n)
bordered by the n unit columns, and d_entry_bordered one cell's defect
count off one pass over A(n) bordered by that cell's Delannoy weights; both
stay off the ladder, as verification routes.  Every block of A read here
is a principal block.  The hot path, `_kernel`'s check of A(n) and the
kept-set passes, reads it off a per-process memo of the rows of A(N), N
the largest order asked so far (`_a_rows`): A(n) is the leading block of
every larger A, so a larger request extends the memo by
`matrices._extend_a`, the one copy of A's recurrence, and never rebuilds
it.  The verification routes build A afresh through `matrices._a_block`,
so they share no state with the path they check.

Every entry point takes its order through `operator.index` (a float order
raises TypeError) and refuses a request whose condensation order exceeds
`matrices.MAX_ORDER`, through `matrices._check_order`, the check
`_extend_a` makes too, both before it builds anything.
"""

from __future__ import annotations

from math import gcd
from operator import index, mul, neg

from .matrices import (_a_block, _check_cells, _check_order, _extend_a,
                       _principal_block, _x_row, defect_weights)
from .pfaffian import _kept_indices, _leading_rungs
from .series import _exact


def _odd_order(n: int, noun: str) -> int:
    """n as an int, refused unless it is odd and >= 1 and its bordered
    Pfaffian, of order n + 1, is within MAX_ORDER; `noun` names the count
    refused."""
    n = index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"{noun} is defined for odd n >= 1")
    _check_order(n + 1)
    return n


# The ladder's per-process memo: rung t is y_t, the kernel vector of X(2t + 1)
# whose end entries are p_t = even_order_full(2t), for every t up to the
# largest rung asked so far; rung 0 is (1,), the kernel of the 1 x 1 zero
# matrix, with p_0 = 1.  An extension that raises leaves it as it was.
_rungs: list[tuple[int, ...]] = [(1,)]

# X's first row (c_0, ..., c_2T) as the ladder's last extension read it, T
# its top rung, so at least n long for the rung of every order n it holds:
# `_defect_cells` reads the "minus" and "plus" vectors off it and the rung.
# It is published with the rungs; rung 0 reads the row of X(1), (0,).
_row: list[int] = [0]

# The kernel vectors of A(n) read off the ladder so far, keyed by order:
# o_vector reads them, and d_vector asks for one only to have `_kernel`
# check the rung it reads against A; a scan asks for each order twice.
_kernels: dict[int, tuple[int, ...]] = {}

# The rows of A(N), N the largest order of A asked so far: `_kernel` checks
# each vector against their leading n, and `_block_pfaffian` picks a kept
# set's block off them.  A larger request extends them by
# `matrices._extend_a`, which builds the new rows on the side, so an
# extension that raises leaves them as they were.
_a_rows: list[tuple[int, ...]] = []


def _ladder(m: int) -> list[tuple[int, ...]]:
    """The ladder's rungs 0..m at least: the memo, or the memo extended to
    rung m from its last two rungs.  The new rungs are built on a copy and
    published once they all are, with the row of X they were built from
    (`_row`), so an extension that raises leaves both as they were."""
    if len(_rungs) <= m:
        c = _x_row(2 * m + 1)
        built = list(_rungs)
        for t in range(len(built), m + 1):
            if t == 1:
                if not c[1]:
                    raise ArithmeticError("zero pivot in the ladder")
                built.append((c[1], -c[2], c[1]))
            else:
                built.append(_rung(c, built[-1], built[-2]))
        _rungs.extend(built[len(_rungs):])
        _row[:] = c
    return _rungs


def _a(order: int) -> list[tuple[int, ...]]:
    """The rows of A(N) for some N >= order: the memo, or the memo
    extended to `order` (never rebuilt) and published once complete."""
    if len(_a_rows) < order:
        _a_rows[:] = _extend_a(_a_rows, order)
    return _a_rows


def _rung(c, w, q) -> tuple[int, ...]:
    """Rung t >= 2 of the ladder, y_t, from w = y_(t-1) and q = y_(t-2)
    and the first row c of X(2t + 1) or of a larger X (c_0 = 0, c_k for
    k >= 1 its entries), by

        p_(t-1)^2 y_t(z) = p_t p_(t-1) (1 + z)^2 w(z) - p_t^2 z^2 q(z),

    reading a vector v as the polynomial v(z) = sum_i v[i] z^i, so that
    z^s shifts it by s.  Row 0 of X(2t + 1) y_t = 0 fixes alpha = p_t/p_(t-1):
    with u = (1 + z)^2 w, y_t = alpha u - alpha^2 z^2 q gives
    alpha (a - alpha b) = 0 for a = sum_j c_j u[j] and
    b = sum_j c_(j+2) q[j].  So with a/b in lowest terms,
    y_t = a (b u - a z^2 q) / b^2; each entry's division by b^2 is exact,
    as y_t is an integer vector and b^2 is prime to a.  y_t is a palindrome,
    so half of it is built and mirrored.  A zero a (p_t = 0) or b
    (b = -2 (t - 1) p_(t-1) on X) raises ArithmeticError: the kernel of
    X(2t + 1) is then not one vector.  So does a y_t whose row 1 does not
    vanish, which the step checks as y_t[0] = sum_k c_(k+1) w[k].

    Why it holds.  Write y_t[k] = (-1)^k Pf(X(2t + 1) minus k): it spans
    the kernel once p_t != 0, its end entries are p_t (X is Toeplitz), and
    it is a palindrome, as J X J = -X for the reversal J.  Row i of
    X(2t + 1) reads z^s w as row i - s of X(2t - 1) reads w, so it
    annihilates w, z w and z^2 w for 2 <= i <= 2t - 2, and z^2 q likewise;
    a palindrome v has (X v)_(2t-i) = -(X v)_i, so rows 0 and 1 are all
    that is left.  Expanding Pf X(2t) and Pf X(2t - 2) along their first
    rows, row 1 of X(2t + 1) reads p_t = sum_k c_(k+1) w[k] off z^2 w and
    p_(t-1) off z^2 q, and row 0 reads p_t off z w.  So for every skew
    Toeplitz X with nonzero p's, y_t = alpha (1 + z^2) w + beta z w -
    alpha^2 z^2 q: the last entry fixes alpha = p_t/p_(t-1), row 1 then
    the coefficient alpha^2, and row 0 beta.  The step builds it with
    beta = 2 alpha and checks row 1, which holds exactly when beta is
    2 alpha, and does on this X at every t: the entry at z is
    y_t[1] = alpha w[1] + beta p_(t-1), and y_s[1] = 2s p_s at every s.
    For with
    x = P^(-T) y_s, the kernel vector of A(2s + 1), A's row 0
    (0, 2, ..., 2) gives sum_(j>=1) x_j = 0, and P^T's rows 0 and 1,
    1 and D(j - 1, 1) = 2j - 1, give y_s[0] = x_0 and
    y_s[1] - 2s y_s[0] = 2 sum_j (j - s) x_j, which is 0 as x is a
    palindrome (the deletion counts are, by the region's reflection;
    deletion-vector-palindrome checks it).  Rows 0 and 1 checked, each
    rung is X(2t + 1)'s kernel vector whenever the two before it are
    theirs, so the ladder needs no other check; `_kernel` still checks
    every vector it reads against A, for the P^(-T) solve.
    """
    t = len(w) // 2 + 1
    padded = (0, 0, *w, 0, 0)
    u = [padded[j] + 2 * padded[j + 1] + padded[j + 2]
         for j in range(2 * t + 1)]
    a, b = sum(map(mul, c, u)), sum(map(mul, c[2:], q))
    if not (a and b):
        raise ArithmeticError("zero pivot in the ladder")
    g = gcd(a, b)
    a, b = _exact(a, g), _exact(b, g)
    bb = b * b
    half = [a * _exact(b * uj - a * qj, bb)
            for uj, qj in zip(u[:t + 1], (0, 0, *q))]
    if half[0] != sum(map(mul, c[1:], w)):
        raise ArithmeticError(f"rung {t} of the ladder is off the kernel "
                              f"of X({2 * t + 1})")
    return (*half, *half[-2::-1])


def count_off_diag(n: int, kept=None) -> int:
    """Off-diagonally symmetric tilings of the order-n region that keeps only
    the given boundary labels (all of them by default).

    The count is the Pfaffian of A's principal block on the kept labels,
    which does not depend on n beyond the labels: 0 for an odd kept set,
    before anything is built; for a leading one, {1, ..., 2t} (the full set
    at even n among them), the leading block A(2t), whose Pfaffian is the
    ladder's p_t; for {1, ..., m} minus one label k, m odd, the block of
    A(m) minus row and column k, whose Pfaffian is o_vector(m)[k - 1], read
    off the ladder by `_o_entry`; and otherwise the pivot of the last rung
    of one fresh condensation pass over the block (`_block_pfaffian`),
    which never pivots.  No leading pivot is 0: the
    leading 2t x 2t block is the block of the first 2t kept labels, so its
    Pfaffian counts the tilings that keep those labels, as non-intersecting
    path families (Stembridge), and pairing consecutive kept sources
    u_j1 < u_j2 with doublet j1 gives a disjoint family, so each such count
    is at least 1.  A zero pivot would raise ArithmeticError rather than
    give a wrong count.
    """
    n = index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_order(n)
    idx = range(n) if kept is None else _kept_indices(kept, n)
    if len(idx) % 2:
        return 0
    if not idx or idx[-1] == len(idx) - 1:
        t = len(idx) // 2
        return _ladder(t)[t][-1]
    if idx[-1] == len(idx):  # {1, ..., m} minus one label, m odd
        k = next(i for i, j in enumerate(idx) if i != j)
        return _o_entry(len(idx) + 1, k + 1)
    return _block_pfaffian(idx)


def _block_pfaffian(idx) -> int:
    """Pf of A's principal block on the 0-based indices `idx`, of even
    length: the last pivot of one fresh condensation pass
    (`pfaffian._leading_rungs`) over it, with no border column.  The block
    is picked off the memo of A's rows (`_a`)."""
    return _leading_rungs(_principal_block(_a(idx[-1] + 1), idx))[-1][0]


def _o_vector_direct(n: int) -> tuple[int, ...]:
    """o_vector(n), for odd n, off one fresh pass over A(n) bordered by the
    n unit columns, none read off the ladder: the verification route.

    Bordered by e_k, the odd-order A(n) has Pfaffian (-1)^(k-1) Pf(A(n)
    minus k) (`pfaffian.bordered_skew`), so the last rung's entry in column
    k, sign flipped at even k, is o_k.  A(n) is built afresh
    (`matrices._a_block`), not read off the memo of A's rows that
    `_kernel` checks against, so the route shares no state with the one it
    checks."""
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    entries = _leading_rungs(_a_block(range(n)), *units)[-1][1:]
    return tuple(-e if k % 2 else e for k, e in enumerate(entries))


def _solve_delannoy(y) -> list[int]:
    """The x with P^T x = y, for P = [D(i - j, j)] (0-based, D the Delannoy
    numbers), by additions only: no Delannoy number is read and no product
    taken.

    P is the Riordan array (1/(1 - s), s (1 + s)/(1 - s)) (Shapiro, Getu,
    Woan and Woodson, 1991): column j of P is s^j (1 + s)^j/(1 - s)^(j+1),
    as sum_p D(p, q) s^p = (1 + s)^q/(1 - s)^(q+1).  Its inverse is the
    Riordan array (1 - hbar, hbar), hbar the compositional inverse of
    s (1 + s)/(1 - s):

        hbar (1 + hbar) = s (1 - hbar).

    So with L_j^(m) = <hbar^j, (y_m, y_(m+1), ...)>, the pairing of the
    coefficients of hbar^j with y from index m on,

        x_j = sum_m [s^m] (1 - hbar) hbar^j y_m = L_j^(0) - L_(j+1)^(0).

    Multiplying the equation for hbar by hbar^(j-1), and pairing s F with
    (y_m, ...) as F with (y_(m+1), ...), gives for j >= 1

        L_j^(m) = L_(j-1)^(m+1) - L_j^(m+1) - L_(j+1)^(m),

    with L_0^(m) = y_m, and L_j^(m) = 0 for j > len(y) - 1 - m, as hbar^j
    starts at s^j.  Row m is built from row m + 1 with j counting down:
    len(y)^2/2 entries, two subtractions each.  A row is kept reversed,
    [L_J^(m), ..., L_0^(m)] with J = len(y) - 1 - m, so the count down runs
    forward through the list.
    """
    row = []
    for m in range(len(y) - 1, -1, -1):
        new = []
        c = p = 0
        # v = L_(j-1)^(m+1), p = L_j^(m+1), c = L_(j+1)^(m), then L_j^(m)
        for v in row:
            c = v - p - c
            new.append(c)
            p = v
        new.append(y[m])
        row = new
    x = [a - b for a, b in zip(row, [0, *row])]
    x.reverse()
    return x


def _kernel(n: int) -> tuple[int, ...]:
    """The kernel vector x of A(n), for an odd n that `_odd_order` admits,
    scaled to x_n = even_order_full(n - 1): x_k = (-1)^(k-1) o_k with
    o = o_vector(n).

    The ladder's rung (n - 1)/2 is the same vector y of X(n); as
    A(n) = P X(n) P^T, x = P^(-T) y: y = P^T x is the paper's Delannoy
    matrix equation.  `_solve_delannoy` solves it with additions only, by
    the recurrence L_j^(m) = L_(j-1)^(m+1) - L_j^(m+1) - L_(j+1)^(m) for the
    pairings L_j^(m) of y from index m on with hbar^j, where
    hbar (1 + hbar) = s (1 - hbar) comes from P^(-1) being the Riordan
    array (1 - hbar, hbar); then x_j = L_j^(0) - L_(j+1)^(0), with the
    scale x_n = y_n kept.  The vector is kept in `_kernels`.  A zero pivot
    of the ladder raises ArithmeticError rather than give a wrong vector,
    and so does a vector off the kernel of A(n): x must annihilate every
    row of A(n), row 1, (0, 2, ..., 2), included.  The rows are the leading
    n of the memo of A(N), N >= n (`_a`), each of N entries; `map` stops at
    x's n entries, so each product reads exactly row i of A(n), the leading
    block, and the check is the same as against a fresh A(n).  A(n) has
    rank n - 1 when o_1, the Pfaffian of its block on rows and columns
    2..n, is nonzero (at every supported order), so the nonzero x spans its
    kernel.
    """
    got = _kernels.get(n)
    if got is None:
        x = _solve_delannoy(_ladder(n // 2)[n // 2])
        if any(sum(map(mul, row, x)) for row in _a(n)[:n]):
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
    the same vector off one bordered condensation pass, for verification.
    """
    o = list(_kernel(_odd_order(n, "deletion vector")))
    o[1::2] = map(neg, o[1::2])
    return tuple(o)


def count_nearly(n: int) -> int:
    """Nearly off-diagonally symmetric tilings of the full odd-order region.

    This is Pf(B(n + 1)), A(n) bordered by the doubled Pell column, which
    equals Pf of X(n) bordered by the constant column 2: twice the sum of
    the ladder's rung (n - 1)/2, the kernel vector of X(n), read from the
    per-process memo or from the ladder extended to it."""
    n = _odd_order(n, "nearly count")
    return 2 * sum(_ladder(n // 2)[n // 2])


def d_vector(variant: str, n: int) -> tuple[int, ...]:
    """Per-cell defect counts for odd n: entry k counts the nearly
    off-diagonal tilings whose defect sits at diagonal cell k.

    variant "plus" counts doubled cells, "minus" empty cells, "pm" both.
    Each is read off the ladder's rung y = y_((n-1)/2), once `_kernel(n)`
    has checked it: "pm" is 2y, "minus" the product of y with X's first
    row truncated to n terms, and "plus" 2y minus that (`_defect_cells`).
    `d_entry_bordered` reads the same counts off a bordered Pfaffian.
    """
    return _defect_cells(variant, n, range(1, index(n) + 1))


def _o_entry(n: int, k: int) -> int:
    """Entry k of o_vector(n), read off the kernel vector as o_k =
    (-1)^(k-1) x_k, with the order and then the label refused before the
    ladder is extended."""
    n = _odd_order(n, "deletion vector")
    if not 1 <= k <= n:
        raise ValueError(f"label must be within 1..{n}")
    x = _kernel(n)[k - 1]
    return -x if k % 2 == 0 else x


def _defect_cells(variant: str, n: int, cells) -> tuple[int, ...]:
    """Entries k in `cells` of d_vector(variant, n), all read off the
    ladder's rung y = y_((n-1)/2) and X's first row c (`_row`), 0-based on
    y: "pm" is 2 y[k-1], "minus" sum_(j<k-1) c_(k-1-j) y[j], and "plus"
    their difference.  So "minus" is the truncated product
    c(z) y(z) mod z^n, and no Delannoy number is read.

    Why.  Entry k is sum_l w_l x_l over cell k's `defect_weights` w and the
    kernel vector x = `_kernel(n)` = P^(-T) y of A(n) = P X(n) P^T,
    P = [D(i - j, j)].  The "pm" weights of cell k are twice column k - 1
    of P, so that sum is 2 (P^T x)[k-1] = 2 y[k-1].  The "minus" weight
    of label l is the "pm" weight of l - 1, so d_minus = 2 P^T S x, for
    the shift (S x)_i = x_(i+1), that is 2 (P^(-1) S^T P)^T y.  P is the
    Riordan array (1/(1 - s), h), h = s (1 + s)/(1 - s), and P^(-1) is
    (1 - hbar, hbar) (`_solve_delannoy`), so P^(-1) S^T P takes column
    (1/(1 - s)) h^j, times s, back to hbar s^j: it is (hbar, s), the lower
    Toeplitz matrix of hbar, and 2 hbar = sqrt(1 + 6s + s^2) - 1 - s = c(s).
    So d_minus[i] = sum_(j>i) c_(j-i) y[j], row i of X's strictly upper
    triangle times y, and row i of X y = 0 turns it into the strictly lower
    triangle, sum_(j<i) c_(i-j) y[j].

    The rung is read once `_kernel(n)` has accepted it.  The kept row is
    checked, before "minus" or "plus" reads it, by row 0 of X(n) y = 0,
    sum_(j=1..n-1) c_j y[j] = 0: every y[j] is a positive count, so a
    changed c_j with 0 < j < n raises ArithmeticError rather than give a
    wrong count.  The order, then the variant, then the cells are refused
    before the ladder is extended."""
    n = _odd_order(n, "defect vector")
    _check_cells(variant, n, cells)
    _kernel(n)
    y = _ladder(n // 2)[n // 2]
    if variant == "pm":
        return tuple(2 * y[k - 1] for k in cells)
    c = _row
    if sum(map(mul, c[1:n], y[1:])):
        raise ArithmeticError(f"the kept row of X is off the kernel of "
                              f"X({n})")
    minus = [sum(map(mul, c[k - 1:0:-1], y)) for k in cells]
    if variant == "minus":
        return tuple(minus)
    return tuple(2 * y[k - 1] - m for k, m in zip(cells, minus))


def d_entry_bordered(variant: str, n: int, k: int) -> int:
    """Same defect count by the second route: the Pfaffian of A(n) bordered
    by cell k's `defect_weights`, the last rung's entry in that one border
    column of one fresh condensation pass (`pfaffian._leading_rungs`),
    none read off the ladder.  A(n) is built afresh (`matrices._a_block`),
    sharing no state with the memo of A's rows.  The pass's leading pivots
    are even_order_full(2t) > 0.  A bad order, variant or cell is refused
    before A is built."""
    n = _odd_order(n, "defect count")
    column = defect_weights(variant, n, index(k))
    return _leading_rungs(_a_block(range(n)), column)[-1][1]


def even_order_full(n: int) -> int:
    """Off-diagonally symmetric tilings of the full even-order region.

    This is Pf(A(n)) = Pf(X(n)), the end entry p_(n/2) of the ladder's rung
    n/2, read from the per-process memo or from the ladder extended to
    it."""
    n = index(n)
    if n < 2 or n % 2:
        raise ValueError("full-region count is defined for even n >= 2")
    _check_order(n)
    return _ladder(n // 2)[n // 2][-1]
