import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

import offdiag.counts
from offdiag.counts import count_nearly, even_order_full, o_vector
from offdiag.pfaffian import (
    SkewMatrix,
    _condense_rows,
    _leading_rungs,
    bordered_skew,
    determinant,
    pfaffian_cofactor,
    principal_submatrix,
    rational_rank,
)
from offdiag.series import _exact


def _matchings(idx):
    if not idx:
        yield ()
        return
    first = idx[0]
    for pos in range(1, len(idx)):
        rest = idx[1:pos] + idx[pos + 1:]
        for sub in _matchings(rest):
            yield ((first, idx[pos]),) + sub


def _matching_sign(edges):
    crossings = 0
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if a < c < b < d or c < a < d < b:
            crossings += 1
    return -1 if crossings % 2 else 1


def naive_pfaffian(rows):
    """Signed sum over perfect matchings; the defining expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n % 2:
        return 0
    total = 0
    for edges in _matchings(tuple(range(n))):
        prod = 1
        for a, b in edges:
            prod *= rows[a][b]
        total += _matching_sign(edges) * prod
    return total


def naive_determinant(rows):
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


# The seed of the random matrices and series that the verify battery used to
# draw before those generic checks moved here; each test keeps its offset.
MOVED_SEED = 20260819


def random_skew(rng, order, lo=-50, hi=50):
    rows = [[0] * order for _ in range(order)]
    for i in range(order):
        for j in range(i + 1, order):
            e = rng.randint(lo, hi)
            rows[i][j] = e
            rows[j][i] = -e
    return SkewMatrix(rows)


def test_trivial_orders():
    assert pfaffian_cofactor(SkewMatrix(())) == 1
    assert pfaffian_cofactor(SkewMatrix(((0,),))) == 0
    assert pfaffian_cofactor(SkewMatrix(((0, 7), (-7, 0)))) == 7
    # the condensation's pass over the empty input has one rung, pivot 1
    assert _leading_rungs((), ()) == [(1, None)]


def assert_condensed(m, want):
    """One fresh leading pass over m, of even order, ends on the pivot
    `want` = Pf(m) where every leading pivot is nonzero, and raises
    ArithmeticError where one is 0."""
    column = [0] * m.order
    if all(pfaffian_cofactor(leading(m, 2 * t))
           for t in range(1, m.order // 2 + 1)):
        assert _leading_rungs(m.rows, column)[-1][0] == want
    else:
        with pytest.raises(ArithmeticError):
            _leading_rungs(m.rows, column)


def test_routes_agree_with_matching_expansion():
    rng = random.Random(101)
    for _ in range(120):
        order = rng.randint(0, 8)
        m = random_skew(rng, order, -9, 9)
        want = naive_pfaffian(m.rows)
        assert pfaffian_cofactor(m) == want
        if order % 2 == 0:
            assert_condensed(m, want)


def test_routes_agree_at_larger_orders():
    # (seed, count, smallest order, largest order)
    for seed, count, lo, hi in ((103, 60, 9, 14), (MOVED_SEED, 200, 0, 10)):
        rng = random.Random(seed)
        for _ in range(count):
            order = rng.randint(lo, hi)
            m = random_skew(rng, order)
            cofactor = pfaffian_cofactor(m)
            if order % 2:
                assert cofactor == 0
            else:
                assert_condensed(m, cofactor)


def test_square_is_determinant():
    for seed, count, hi in ((109, 80, 9), (MOVED_SEED + 1, 120, 8)):
        rng = random.Random(seed)
        for _ in range(count):
            order = rng.randint(0, hi)
            m = random_skew(rng, order)
            pf = pfaffian_cofactor(m)
            assert pf * pf == determinant(m.rows) == naive_determinant(m.rows)


def test_swapping_two_indices_negates_the_pfaffian():
    rng = random.Random(MOVED_SEED + 2)
    nonzero = 0
    for _ in range(120):
        order = 2 * rng.randint(1, 5)
        m = random_skew(rng, order)
        i, j = rng.sample(range(order), 2)
        perm = list(range(order))
        perm[i], perm[j] = perm[j], perm[i]
        swapped = SkewMatrix(
            tuple(tuple(m.rows[perm[r]][perm[c]] for c in range(order))
                  for r in range(order)))
        pf = pfaffian_cofactor(m)
        assert pfaffian_cofactor(swapped) == -pf
        nonzero += pf != 0
    assert nonzero > 100


def test_determinant_matches_naive_on_general_matrices():
    rng = random.Random(113)
    for _ in range(80):
        order = rng.randint(0, 7)
        rows = [[rng.randint(-9, 9) for _ in range(order)]
                for _ in range(order)]
        assert determinant(rows) == naive_determinant(rows)


def test_skew_matrix_validation():
    with pytest.raises(ValueError):
        SkewMatrix(((0, 1),))
    with pytest.raises(ValueError):
        SkewMatrix(((1,),))
    with pytest.raises(ValueError):
        SkewMatrix(((0, 1), (1, 0)))


def test_non_integer_entries_are_refused():
    # entries go through operator.index: a Fraction or float is refused,
    # not truncated to an integer
    with pytest.raises(TypeError):
        SkewMatrix([[0, Fraction(3, 2)], [Fraction(-3, 2), 0]])
    with pytest.raises(TypeError):
        SkewMatrix([[0, 0.9], [-0.9, 0]])
    with pytest.raises(TypeError):
        bordered_skew(SkewMatrix([[0]]), [1.7])
    with pytest.raises(TypeError):
        _leading_rungs(((0,),), [(Fraction(1, 2),)])
    assert pfaffian_cofactor(SkewMatrix([[0, True], [-1, 0]])) == 1


def test_principal_submatrix():
    m = SkewMatrix(((0, 1, 2), (-1, 0, 3), (-2, -3, 0)))
    sub = principal_submatrix(m, (1, 3))
    assert sub.rows == ((0, 2), (-2, 0))
    assert principal_submatrix(m, (3, 1)).rows == sub.rows
    assert principal_submatrix(m, ()).order == 0
    with pytest.raises(ValueError):
        principal_submatrix(m, (0, 1))
    with pytest.raises(ValueError):
        principal_submatrix(m, (4,))
    # a repeated label is refused, not deduplicated
    with pytest.raises(ValueError, match="repeat"):
        principal_submatrix(m, (1, 1, 3))


def test_principal_submatrix_refuses_non_integer_labels():
    # labels go through operator.index, so a float label is refused up
    # front rather than failing as a tuple index
    m = SkewMatrix(((0, 1, 2), (-1, 0, 3), (-2, -3, 0)))
    for keep in ((1.0, 2.0), (1, 2.5)):
        with pytest.raises(TypeError, match="interpreted as an integer"):
            principal_submatrix(m, keep)
    assert principal_submatrix(m, (True, 3)) == principal_submatrix(m, (1, 3))


def bordered_cases():
    yield SkewMatrix(((0, 5, -2), (-5, 0, 7), (2, -7, 0))), [3, -4, 6]
    rng = random.Random(MOVED_SEED + 3)
    for _ in range(80):
        order = 2 * rng.randint(1, 4) + 1
        m = random_skew(rng, order)
        yield m, [rng.randint(-50, 50) for _ in range(order)]


def test_bordered_skew_layout_and_sign():
    for m, col in bordered_cases():
        n = m.order
        bordered = bordered_skew(m, col)
        assert bordered.order == n + 1
        for i in range(n):
            assert bordered.rows[i][n] == col[i]
            assert bordered.rows[n][i] == -col[i]
        # expansion along the border column
        labels = range(1, n + 1)
        want = sum(
            (-1) ** (k - 1) * col[k - 1]
            * pfaffian_cofactor(
                principal_submatrix(m, [i for i in labels if i != k]))
            for k in labels
        )
        assert pfaffian_cofactor(bordered) == want
        with pytest.raises(ValueError):
            bordered_skew(m, col[:-1])


def sparse_skew(rng, order, density):
    rows = [[0] * order for _ in range(order)]
    for i in range(order):
        for j in range(i + 1, order):
            if rng.random() < density:
                e = rng.randint(-3, 3)
                rows[i][j] = e
                rows[j][i] = -e
    return SkewMatrix(rows)


def kernel_by_cofactor(m):
    """(-1)^(k-1) Pf(m minus k), k = 1..order, by cofactor expansion: for
    an odd m with a nonzero Pfaffian of its leading even block, the kernel
    vector of m whose last entry is that Pfaffian."""
    labels = range(1, m.order + 1)
    return tuple(
        (-1) ** (k - 1) * pfaffian_cofactor(
            principal_submatrix(m, [i for i in labels if i != k]))
        for k in labels)


def leading(m, order):
    return principal_submatrix(m, range(1, order + 1))


def deletion_vector(m):
    """(-1)^(k-1) Pf(m minus k), k = 1..order, of an odd skew m: entry k is
    the border entry of the last rung of one leading pass over m bordered
    by the unit column e_k, as Pf(bordered_skew(m, h)) is
    sum_k (-1)^(k-1) h_k Pf(m minus k)."""
    n = m.order
    return tuple(
        _leading_rungs(m.rows, [int(i == k) for i in range(n)])[-1][1]
        for k in range(n))


def deletion_rungs(m):
    """The deletion vector of every odd leading block of m."""
    return [deletion_vector(leading(m, k)) for k in range(1, m.order + 1, 2)]


def test_deletion_pfaffians_match_cofactor_on_random_skew():
    rng = random.Random(137)
    raised = read = 0
    for _ in range(1500):
        order = rng.choice((1, 3, 5, 7, 9))
        m = sparse_skew(rng, order, rng.random())
        if all(pfaffian_cofactor(leading(m, 2 * t))
               for t in range(order // 2 + 1)):
            got = deletion_vector(m)
            assert got == kernel_by_cofactor(m)
            assert not any(sum(map(mul, row, got)) for row in m.rows)
            read += 1
        else:
            # a zero leading pivot: the pass stops instead of misreading
            with pytest.raises(ArithmeticError):
                deletion_vector(m)
            raised += 1
    assert raised > 100 and read > 100


def test_deletion_pfaffians_small_cases():
    assert deletion_rungs(SkewMatrix(((0,),))) == [(1,)]
    assert deletion_rungs(SkewMatrix(())) == []
    m = SkewMatrix(((0, 5, -2), (-5, 0, 7), (2, -7, 0)))
    assert deletion_rungs(m) == [(1,), (7, 2, 5)]
    # an even order gives its odd leading blocks only
    assert deletion_rungs(bordered_skew(m, (1, 1, 1))) == [(1,), (7, 2, 5)]
    # zero leading pivots: the first rung is read, a longer pass raises
    for m in (SkewMatrix([[0] * 5] * 5),
              SkewMatrix(((0, 0, 0), (0, 0, 4), (0, -4, 0)))):
        assert deletion_rungs(leading(m, 1)) == [(1,)]
        with pytest.raises(ArithmeticError):
            deletion_rungs(m)
    # the count ladder's first rungs are the deletion vectors of X(1) and
    # X(3), (1,) and (c_1, -c_2, c_1), as the pass reads them
    c = offdiag.counts._x_row(3)
    x3 = SkewMatrix(((0, c[1], c[2]), (-c[1], 0, c[1]), (-c[2], -c[1], 0)))
    assert deletion_rungs(x3) == [(1,), (c[1], -c[2], c[1])]
    assert offdiag.counts._ladder(1)[:2] == deletion_rungs(x3)


def test_corrupted_step_makes_the_back_substitution_raise(monkeypatch,
                                                          empty_ladders):
    # every division of the ladder's step (counts._rung), which builds the
    # kernel vectors of X that the back-substitution through a pass used
    # to, is exact on true rungs; a stored rung changed so that one is not
    # (here entry 1 of rung 2, read by the step to rung 3 that o_vector(7)
    # needs) raises rather than give a vector
    assert o_vector(7) == (312, 1560, 3640, 4472, 3640, 1560, 312)
    bad = list(offdiag.counts._rungs[:3])
    assert bad[2] == (12, 48, 36, 48, 12)
    bad[2] = (12, 49, 36, 48, 12)
    monkeypatch.setattr(offdiag.counts, "_rungs", bad)
    monkeypatch.setattr(offdiag.counts, "_kernels", {})
    with pytest.raises(ArithmeticError, match="inexact division"):
        o_vector(7)
    assert offdiag.counts._rungs == bad


def test_toeplitz_pass_refuses_odd_orders_and_zero_pivots(monkeypatch,
                                                          empty_ladders):
    # the count ladder over X reads p_t at even orders and y_t at odd ones
    for call in (lambda: even_order_full(3), lambda: count_nearly(4),
                 lambda: o_vector(4)):
        with pytest.raises(ValueError, match="defined for"):
            call()
    with pytest.raises(TypeError):
        even_order_full(4.0)                # an order is an int
    # Pf X(4) = c1^2 - c2^2 + c1 c3 is -1 at (c1, c2, c3) = (0, 1, 1),
    # whose first pivot c1 is 0, and 0 at (2, 0, -2), where the step to
    # rung 2 meets b = c_2 y_0 = 0; each raises and leaves the ladder's
    # memo as it was
    toeplitz = [SkewMatrix([[row[j - i] if i <= j else -row[i - j]
                             for j in range(4)] for i in range(4)])
                for row in ([0, 0, 1, 1], [0, 2, 0, -2])]
    assert [pfaffian_cofactor(x) for x in toeplitz] == [-1, 0]
    for row, kept in (([0, 0, 1, 1], [(1,)]),
                      ([0, 2, 0, -2], [(1,), (2, 0, 2)])):
        monkeypatch.setattr(offdiag.counts, "_x_row",
                            lambda n, row=row: (row + [0] * n)[:n])
        monkeypatch.setattr(offdiag.counts, "_rungs", [(1,)])
        if len(kept) > 1:
            assert offdiag.counts._ladder(1) == kept
        with pytest.raises(ArithmeticError, match="zero pivot"):
            even_order_full(4)
        assert offdiag.counts._rungs == kept


def test_exact_division_returns_the_quotient_or_raises():
    # the package's one division: that of the condensation step, the count
    # ladder, the Bareiss elimination, the power series and the Delannoy
    # recurrence
    for num, den, want in ((12, 4, 3), (-12, 4, -3), (12, -4, -3),
                           (-12, -4, 3), (0, -7, 0),
                           (-3 * 10**40, 3, -10**40)):
        assert _exact(num, den) == want
    for num, den in ((7, 2), (-7, 2), (7, -2), (-7, -2), (1, 10**40)):
        with pytest.raises(ArithmeticError, match="^inexact division$"):
            _exact(num, den)


def test_a_condensation_step_refuses_a_remainder():
    # the leading 4 x 4 skew matrix with a01 = 2 and 1 elsewhere above the
    # diagonal: one step from the empty block (divisor 1) leaves its
    # Pfaffian, 2 - 1 + 1 = 2, at working entry (0, 1); the same rows under a
    # divisor that is not the previous pivot leave a remainder, which raises
    # rather than give an entry
    top, second = [0, 2, 1, 1], [-2, 0, 1, 1]
    rows = [[-1, -1, 0, 1], [-1, -1, -1, 0]]
    assert _condense_rows(top, second, rows, 1) == [[0, 2], [0, 0]]
    assert _condense_rows(top, second, rows, 2) == [[0, 1], [0, 0]]
    with pytest.raises(ArithmeticError, match="^inexact division$"):
        _condense_rows(top, second, rows, 3)


def test_a_leading_pass_reads_only_the_strict_upper_triangle():
    # a leading pass reads its input's strict upper triangle and border
    # column alone, so an integer input, skew or not, is condensed as the
    # skew matrix of that triangle, whose working entries are Pfaffians:
    # no integer input leaves a remainder in a step, and only a step handed
    # a foreign divisor (above) reaches the guard
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(2, 8)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        column = [rng.randint(-5, 5) for _ in range(n)]
        skew = [[rows[i][j] if i < j else -rows[j][i] if j < i else 0
                 for j in range(n)] for i in range(n)]
        try:
            want = _leading_rungs(skew, column)
        except ArithmeticError:
            with pytest.raises(ArithmeticError, match="^zero pivot"):
                _leading_rungs(rows, column)
            continue
        assert _leading_rungs(rows, column) == want


def test_leading_pfaffians_read_every_leading_order():
    rng = random.Random(139)
    raised = 0
    for _ in range(300):
        order = rng.randint(0, 9)
        m = random_skew(rng, order, -4, 4)
        column = [rng.randint(-9, 9) for _ in range(order)]
        pivots = [pfaffian_cofactor(leading(m, 2 * t))
                  for t in range(order // 2 + 1)]
        if not all(pivots):
            # a zero leading pivot: no swap, no fallback
            raised += 1
            with pytest.raises(ArithmeticError):
                _leading_rungs(m.rows, column)
            continue
        got = _leading_rungs(m.rows, column)
        assert [p for p, _ in got] == pivots
        odd = [leading(m, k) for k in range(1, order + 1, 2)]
        assert [entry for _, entry in got] == [
            pfaffian_cofactor(bordered_skew(block, column[:block.order]))
            for block in odd] + [None] * (order % 2 == 0)
    assert raised > 10
    with pytest.raises(ValueError):
        _leading_rungs(((0, 1), (-1, 0)), [1])


def test_leading_pass_refuses_malformed_input():
    # a pass takes one border entry, an int, per row, and rows of the
    # input's order; its rungs run from 0 to its number of steps
    m = SkewMatrix(((0, 1, 1), (-1, 0, 2), (-1, -2, 0)))
    with pytest.raises(ValueError):
        _leading_rungs(m.rows[:2] + ((1, 2),), [0] * 3)  # a short row
    with pytest.raises(ValueError):
        _leading_rungs(m.rows, [3, 4])        # no border entry for row 3
    with pytest.raises(TypeError):
        _leading_rungs(m.rows, [3, 4, (5,)])  # a border entry is one int
    # rung 1's border entry: h_1 a_23 - h_2 a_13 + h_3 a_12 (1-based)
    three = _leading_rungs(m.rows, [3, 4, 5])
    assert three[1] == (1, 3 * 2 - 4 + 5)
    assert len(three) == 2                    # a pass of one step: rungs 0, 1


def test_zero_leading_pivot_raises_on_the_leading_path():
    # Pf = a01 a23 - a02 a13 + a03 a12 = 0 - 1 + 6: a zero (0, 1) pivot
    m = SkewMatrix(((0, 0, 1, 2), (0, 0, 3, 1), (-1, -3, 0, 5),
                    (-2, -1, -5, 0)))
    assert pfaffian_cofactor(m) == naive_pfaffian(m.rows) == 5
    with pytest.raises(ArithmeticError):
        _leading_rungs(m.rows, [0] * 4)
    odd = bordered_skew(m, (1, 1, 1, 1))
    with pytest.raises(ArithmeticError):
        _leading_rungs(odd.rows, [0] * 5)
    # the zero pivot may also come later: Pf of the leading 4 x 4 block is 0
    m = SkewMatrix(((0, 1, 1, 0, 0, 1), (-1, 0, -1, 1, -1, 0),
                    (-1, 1, 0, 1, 0, 0), (0, -1, -1, 0, 1, 0),
                    (0, 1, 0, -1, 0, 0), (-1, 0, 0, 0, 0, 0)))
    assert pfaffian_cofactor(leading(m, 4)) == 0
    assert pfaffian_cofactor(m) == naive_pfaffian(m.rows) == -2
    # two steps run on the leading 3 x 3 block; the third needs Pf = 0
    steps = _leading_rungs(leading(m, 3).rows, [0] * 3)
    assert [p for p, _ in steps] == [1, 1]
    with pytest.raises(ArithmeticError):
        _leading_rungs(m.rows, [0] * 6)


def test_rational_rank():
    assert rational_rank(()) == 0
    assert rational_rank(((1, 2), (2, 4))) == 1
    assert rational_rank(((1, 0), (0, 1))) == 2
    assert rational_rank(((0, 0, 0),)) == 0
    # a column with no pivot is skipped, not the end of the elimination
    assert rational_rank(((0, 1, 0), (0, 2, 0), (0, 0, 3))) == 2
    # integers only: a rational entry is refused, not truncated
    with pytest.raises(TypeError):
        rational_rank(((Fraction(1, 2), Fraction(1, 3)),))
    with pytest.raises(TypeError):
        determinant(((Fraction(1, 2),),))


def naive_rank(rows):
    """Rank by Gauss elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            factor = m[r][col] / m[rank][col]
            for c in range(col, len(m[0])):
                m[r][c] -= factor * m[rank][c]
        rank += 1
    return rank


def test_rank_matches_naive_on_deficient_matrices():
    # products of thin random factors, so most are rank-deficient, with a
    # zero column spliced in at random to exercise the column skip
    rng = random.Random(137)
    deficient = 0
    for _ in range(150):
        nrows, ncols, inner = (rng.randint(1, 6), rng.randint(1, 6),
                               rng.randint(0, 4))
        left = [[rng.randint(-3, 3) for _ in range(inner)]
                for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)]
                 for _ in range(inner)]
        rows = [[sum(left[i][k] * right[k][j] for k in range(inner))
                 for j in range(ncols)] for i in range(nrows)]
        at = rng.randint(0, ncols)
        rows = [row[:at] + [0] + row[at:] for row in rows]
        rank = rational_rank(rows)
        assert rank == naive_rank(rows)
        deficient += rank < min(nrows, ncols + 1)
    assert deficient > 100


def test_rank_agrees_with_determinant_test():
    rng = random.Random(131)
    for _ in range(60):
        order = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(order)]
                for _ in range(order)]
        full = rational_rank(rows) == order
        assert full == (naive_determinant(rows) != 0)
