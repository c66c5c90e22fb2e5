import random
from fractions import Fraction

import pytest

from offdiag import series


def test_expand_rational_geometric():
    assert series.expand_rational((1,), (1, -1), 6) == (1, 1, 1, 1, 1, 1)
    assert series.expand_rational((1, 1), (1, -1), 5) == (1, 2, 2, 2, 2)


# The seed of the random series that the verify battery used to draw before
# those generic checks moved here; each test keeps its offset.
MOVED_SEED = 20260819


def rational_cases():
    """(num, den, order) triples: seed 7, then 120 seeded 12-term cases."""
    rng = random.Random(7)
    for _ in range(50):
        num = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        den = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        den[0] = rng.choice([1, -1, 2, 3])
        yield num, den, rng.randint(0, 12)
    rng = random.Random(MOVED_SEED + 4)
    for _ in range(120):
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        den = ([rng.choice((-2, -1, 1, 2))]
               + [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))])
        yield num, den, 12


def test_expand_rational_matches_naive_convolution():
    for num, den, order in rational_cases():
        expanded = series.expand_rational(num, den, order)
        want = tuple(Fraction(num[k]) if k < len(num) else Fraction(0)
                     for k in range(order))
        # the defining property: den * expansion agrees with num term by term
        for k in range(order):
            acc = sum(Fraction(den[i]) * expanded[k - i]
                      for i in range(min(k, len(den) - 1) + 1))
            assert acc == want[k]
        assert series.multiply(expanded, den, order) == want


def test_expand_rational_rejects_zero_constant_denominator():
    with pytest.raises(ValueError):
        series.expand_rational((1,), (0, 1), 4)
    with pytest.raises(ValueError):
        series.expand_rational((1,), (1,), -1)


def test_add_subtract_multiply_small():
    a = (Fraction(1), Fraction(2))
    b = (Fraction(3), Fraction(-1))
    assert series.subtract(a, b) == (-2, 3)
    assert series.multiply((1, 1, 1), (1, 1, 1)) == (1, 2, 3)
    assert series.multiply((1, 1), (1, 1), order=4) == (1, 2, 1, 0)


def test_multiply_matches_naive_cauchy_product():
    rng = random.Random(11)
    for _ in range(40):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(1, 8))]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(1, 8))]
        got = series.multiply(a, b)
        for k in range(len(got)):
            want = sum(a[i] * b[k - i]
                       for i in range(len(a)) if 0 <= k - i < len(b))
            assert got[k] == want


def root_cases():
    """Roots with a positive constant term: seed 13, then 120 seeded roots
    with constant term 1 and integer coefficients."""
    rng = random.Random(13)
    for _ in range(40):
        root = [Fraction(rng.randint(1, 6))]
        root.extend(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 10)))
        yield tuple(root)
    rng = random.Random(MOVED_SEED + 5)
    for _ in range(120):
        yield ((Fraction(1),)
               + tuple(Fraction(rng.randint(-6, 6))
                       for _ in range(rng.randint(0, 8))))


def test_sqrt_round_trip_random():
    for root in root_cases():
        square = series.multiply(root, root, order=len(root))
        got = series.sqrt(square)
        assert got == root
        assert series.multiply(got, got) == square


def test_sqrt_fixture():
    s = series.sqrt(series.expand_rational((1, -6, 1), (1,), 5))
    assert series.integer_coeffs(s) == (1, -3, -4, -12, -44)


def test_sqrt_rejects_non_square_constant():
    with pytest.raises(ValueError):
        series.sqrt((2, 1))
    with pytest.raises(ValueError):
        series.sqrt((-1, 0))
    assert series.sqrt(()) == ()  # nothing to take the root of


def test_integer_coeffs():
    assert series.integer_coeffs((Fraction(3), Fraction(-1))) == (3, -1)
    with pytest.raises(ValueError):
        series.integer_coeffs((Fraction(1, 2),))


def test_poly_multiply_and_power():
    assert series.poly_multiply((1, 1), (1, 1)) == (1, 2, 1)
    assert series.poly_power((1, 1), 3) == (1, 3, 3, 1)
    assert series.poly_power((1, -1), 0) == (1,)
    with pytest.raises(ValueError):
        series.poly_power((1, 1), -1)


def test_schroeder_numbers():
    assert series.schroeder_numbers(7) == (1, 2, 6, 22, 90, 394, 1806)
    # classical recurrence as an independent route
    sch = series.schroeder_numbers(12)
    for n in range(2, 12):
        want = 3 * sch[n - 1] + sum(sch[k] * sch[n - 1 - k]
                                    for k in range(1, n - 1))
        assert sch[n] == want
