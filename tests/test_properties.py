"""Property tests, drawn by hypothesis with a fixed seed and no example
database, so that every run draws the same examples (`conftest.py` keeps
hypothesis's other caches out of the checkout)."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from offdiag import counts, series
from offdiag.matrices import matrix_a, pell_vector
from offdiag.pfaffian import _leading_rungs

FIXED = settings(derandomize=True, deadline=None, database=None,
                 max_examples=300)

TOP = 20


def ladder_to(tops):
    """The ladder's rungs after requests for the rungs `tops`, in turn,
    from an empty memo; the process's own memo is put back after."""
    kept = counts._rungs
    counts._rungs = [(1,)]
    try:
        for top in tops:
            counts._ladder(top)
        return list(counts._rungs)
    finally:
        counts._rungs = kept


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
