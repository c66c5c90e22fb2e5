import math
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


def integral(values) -> bool:
    return all(Fraction(v).denominator == 1 for v in values)


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


def reference_expansion(num, den, order):
    """num/den in Fractions, straight from den * expansion = num."""
    out = []
    for k in range(order):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / den[0])
    return tuple(out)


def test_expand_rational_matches_naive_convolution():
    exact = 0
    for num, den, order in rational_cases():
        want = reference_expansion(num, den, order)
        if integral(want):
            exact += 1
            got = series.expand_rational(num, den, order)
            assert got == want
            assert all(type(c) is int for c in got)
            assert series.multiply(got, den, order) == tuple(
                num[k] if k < len(num) else 0 for k in range(order))
        else:
            # a non-integer coefficient is refused, never rounded
            with pytest.raises(ArithmeticError):
                series.expand_rational(num, den, order)
    assert exact == 95  # of 170


def test_a_remainder_raises_inexact_division():
    # 1/2 has no integer constant term; the message is that of every exact
    # division of the package
    with pytest.raises(ArithmeticError, match="^inexact division$"):
        series.expand_rational((1,), (2,), 2)


def test_expand_rational_rejects_zero_constant_denominator():
    with pytest.raises(ValueError):
        series.expand_rational((1,), (0, 1), 4)
    with pytest.raises(ValueError):
        series.expand_rational((1,), (1,), -1)


def test_non_integer_coefficients_are_refused():
    half = Fraction(1, 2)
    for call in (lambda: series.expand_rational((half,), (1,), 2),
                 lambda: series.expand_rational((1,), (Fraction(1),), 2),
                 lambda: series.multiply((1.0,), (1,)),
                 lambda: series.subtract((half,), (1,)),
                 lambda: series.sqrt((Fraction(4), 1))):
        with pytest.raises(TypeError):
            call()


def test_add_subtract_multiply_small():
    assert series.subtract((1, 2), (3, -1)) == (-2, 3)
    assert series.multiply((1, 1, 1), (1, 1, 1)) == (1, 2, 3)
    assert series.multiply((1, 1), (1, 1), order=4) == (1, 2, 1, 0)


def cleared(values):
    """(scale, ints): the values times the lcm of their denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [int(v * scale) for v in values]


def test_multiply_matches_naive_cauchy_product():
    rng = random.Random(11)
    for _ in range(40):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(1, 8))]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(1, 8))]
        with pytest.raises(TypeError):
            series.multiply(a, b)
        # the same product over ints, with the denominators cleared
        (sa, ia), (sb, ib) = cleared(a), cleared(b)
        got = series.multiply(ia, ib)
        for k in range(len(got)):
            want = sum(a[i] * b[k - i]
                       for i in range(len(a)) if 0 <= k - i < len(b))
            assert got[k] == sa * sb * want


def test_multiply_at_full_order():
    assert series.multiply((1, 1), (1, 1), 3) == (1, 2, 1)
    cube = (1,)
    for _ in range(3):
        cube = series.multiply(cube, (1, 1), len(cube) + 1)
    assert cube == (1, 3, 3, 1)
    assert series.multiply((1, -1), (), 0) == ()


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
    exact = 0
    for root in root_cases():
        square = tuple(
            sum(root[i] * root[k - i] for i in range(k + 1))
            for k in range(len(root)))
        if not integral(square):
            with pytest.raises(TypeError):
                series.sqrt(square)
            continue
        square = tuple(int(c) for c in square)
        if integral(root):
            exact += 1
            got = series.sqrt(square)
            assert got == root
            assert series.multiply(got, got) == square
        else:
            # an integer square whose root is not integral is refused
            with pytest.raises(ArithmeticError):
                series.sqrt(square)
    assert exact == 129  # of 160


def test_sqrt_fixture():
    s = series.sqrt(series.expand_rational((1, -6, 1), (1,), 5))
    assert s == (1, -3, -4, -12, -44)


def test_sqrt_rejects_non_square_constant():
    with pytest.raises(ValueError):
        series.sqrt((2, 1))
    with pytest.raises(ValueError):
        series.sqrt((-1, 0))
    with pytest.raises(ValueError):
        series.sqrt((0, 1))
    assert series.sqrt(()) == ()  # nothing to take the root of


def test_schroeder_numbers():
    assert series.schroeder_numbers(7) == (1, 2, 6, 22, 90, 394, 1806)
    # classical recurrence as an independent route
    sch = series.schroeder_numbers(12)
    for n in range(2, 12):
        want = 3 * sch[n - 1] + sum(sch[k] * sch[n - 1 - k]
                                    for k in range(1, n - 1))
        assert sch[n] == want


def test_schroeder_numbers_refuse_a_negative_count():
    assert series.schroeder_numbers(0) == ()
    with pytest.raises(ValueError, match="count must be >= 0"):
        series.schroeder_numbers(-1)
