"""Property tests, drawn by hypothesis with a fixed seed and no example
database, so that every run draws the same examples (`conftest.py` keeps
hypothesis's other caches out of the checkout)."""

from functools import lru_cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offdiag import count_off_diag, counts, series
from offdiag.matrices import _a_block, matrix_a, pell_vector
from offdiag.paths import delannoy
from offdiag.pfaffian import (SkewMatrix, _leading_rungs, pfaffian_cofactor,
                              principal_submatrix)

FIXED = settings(derandomize=True, deadline=None, database=None,
                 max_examples=300)

TOP = 20


def ladder_to(tops):
    """The ladder's rungs after requests for the rungs `tops`, in turn,
    from an empty memo; the process's own memo, with the row of X it
    keeps, is put back after."""
    kept = counts._rungs, counts._row
    counts._rungs, counts._row = [(1,)], [0]
    try:
        for top in tops:
            counts._ladder(top)
        return list(counts._rungs)
    finally:
        counts._rungs, counts._row = kept


@lru_cache(maxsize=None)
def fresh_rungs(order):
    """Every rung of one fresh condensation of A(order) bordered by the
    Pell column."""
    return _leading_rungs(matrix_a(order).rows, pell_vector(order))


@FIXED
@given(tops=st.lists(st.integers(1, TOP), min_size=1, max_size=6))
def test_extended_ladder_matches_one_run_and_a_fresh_condensation(tops):
    # extended in steps of any size and asked in any order, the ladder
    # builds exactly the rungs asked, equal to one run to the top rung; its
    # pivots p_t and border entries 2 sum(y_t) are those of one fresh
    # condensation of A(N) bordered by the Pell column, N = 2 max(tops)
    got = ladder_to(tops)
    top = max(tops)
    assert got == ladder_to([TOP])[:top + 1]
    assert [(y[-1], 2 * sum(y)) for y in got[:top]] + [
        (got[top][-1], None)] == fresh_rungs(2 * top)


def p_transpose_times(x):
    """P^T x for P = [delannoy(i - j, j)], 0-based."""
    return [sum(delannoy(i - j, j) * v for i, v in enumerate(x))
            for j in range(len(x))]


@FIXED
@given(y=st.lists(st.integers(), min_size=1, max_size=40))
def test_the_delannoy_solve_inverts_p_transpose(y):
    # `counts._solve_delannoy` reads no Delannoy number; P^T times what it
    # solves gives back any integer vector
    assert p_transpose_times(counts._solve_delannoy(y)) == y


def test_the_delannoy_solve_inverts_p_transpose_on_every_rung():
    # and on each of the ladder's rungs, the vectors it solves in use, to
    # n = 121
    for y in counts._ladder(60)[:61]:
        assert p_transpose_times(counts._solve_delannoy(y)) == list(y)


@FIXED
@given(n_kept=st.integers(9, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
def test_count_off_diag_is_the_cofactor_pfaffian_of_its_block(n_kept):
    # past the orders whose kept sets are all checked, any kept set counts
    # the Pfaffian of A's principal block on it, by cofactor expansion
    n, kept = n_kept
    assert count_off_diag(n, kept) == pfaffian_cofactor(
        principal_submatrix(matrix_a(n), kept))


@FIXED
@given(idx=st.sets(st.integers(0, 23)).map(
    lambda s: sorted(s)[len(s) % 2:]))
def test_no_pivot_of_a_principal_block_is_below_one(idx):
    # each pivot of the pass over A's block on an even index list counts
    # path families, so none is below 1 and count_off_diag never pivots
    rungs = _leading_rungs(_a_block(idx), [0] * len(idx))
    assert all(pivot >= 1 for pivot, _ in rungs)


def odd_skew(draw_upper):
    """The odd-order skew matrix whose strict upper triangle, row by row,
    is `draw_upper`'s entries."""
    n, upper = draw_upper
    rows = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = next(entries)
            rows[j][i] = -rows[i][j]
    return rows


@settings(FIXED, max_examples=100)
@given(drawn=st.integers(0, 3).map(lambda t: 2 * t + 1).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(-9, 9), min_size=n * (n - 1) // 2,
        max_size=n * (n - 1) // 2))))
def test_unit_borders_give_the_signed_deletion_pfaffians(drawn):
    # bordered by the unit column e_k, an odd skew M has Pfaffian
    # (-1)^(k-1) Pf(M minus k): one pass with every unit column reads them
    # all, where no leading pivot is 0
    rows = odd_skew(drawn)
    m = SkewMatrix(rows)
    n = m.order
    assume(all(pfaffian_cofactor(principal_submatrix(m, range(1, 2 * t + 1)))
               for t in range(1, n // 2 + 1)))
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    assert _leading_rungs(rows, *units)[-1][1:] == tuple(
        (-1) ** k * pfaffian_cofactor(principal_submatrix(
            m, [label for label in range(1, n + 1) if label != k + 1]))
        for k in range(n))


coefficients = st.lists(st.integers(-50, 50), max_size=12)


@FIXED
@given(a=coefficients, unit=st.sampled_from((1, -1)),
       rest=st.lists(st.integers(-9, 9), max_size=5),
       order=st.integers(0, 12))
def test_expanding_a_product_by_its_factor_gives_the_other(a, unit, rest,
                                                           order):
    # (a den) / den = a to any order the product is known to, when den's
    # constant term is a unit, so every division is exact
    den = [unit] + rest
    order = min(order, len(a))
    product = series.multiply(a, den, order)
    assert series.expand_rational(product, den, order) == tuple(a[:order])


@FIXED
@given(head=st.integers(1, 30), tail=coefficients)
def test_the_square_root_of_a_square_is_its_positive_root(head, tail):
    root = (head, *tail)
    assert series.sqrt(series.multiply(root, root)) == root
