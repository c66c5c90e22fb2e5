"""Property tests, drawn by hypothesis with a fixed seed and no example
database, so that every run draws the same examples (`conftest.py` keeps
hypothesis's other caches out of the checkout)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdiag import series
from offdiag.pfaffian import (SkewMatrix, _deletion_vector, _LeadingPass,
                              _ToeplitzPass)

FIXED = settings(derandomize=True, deadline=None, database=None,
                 max_examples=300)


def toeplitz(row):
    n = len(row)
    return SkewMatrix([[row[j - i] if i <= j else -row[i - j]
                        for j in range(n)] for i in range(n)])


@FIXED
@given(entries=st.lists(st.integers(-4, 4), min_size=13, max_size=13),
       border=st.integers(-9, 9),
       halves=st.lists(st.integers(0, 7), min_size=2, max_size=5))
def test_resumed_toeplitz_pass_matches_one_fresh_condensation(entries, border,
                                                              halves):
    # grown through any sequence of even orders, the pass holds at each one
    # the steps of one fresh condensation of that leading block of X
    # bordered by the constant column, so every rung and deletion vector;
    # a zero pivot raises and leaves the pass it resumed as it was
    row = [0] + entries
    done = _ToeplitzPass(border)
    for k in sorted({2 * half for half in halves}):
        try:
            fresh = _LeadingPass(toeplitz(row[:k]).rows, [border] * k)
        except ArithmeticError:
            snapshot = repr((done.order, done.steps, done.pivot))
            with pytest.raises(ArithmeticError, match="zero pivot"):
                done.resume(row[:k])
            assert repr((done.order, done.steps, done.pivot)) == snapshot
            return
        grown = done.resume(row[:k])
        assert (grown.order, grown.steps, grown.pivot) == (
            fresh.order, fresh.steps, fresh.pivot)
        assert [_deletion_vector(grown, n) for n in range(1, k, 2)] == [
            _deletion_vector(fresh, n) for n in range(1, k, 2)]
        done = grown


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
