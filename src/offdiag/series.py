"""Exact truncated power series over integer coefficients.

A series is a plain tuple of ints, constant term first; its order is the
tuple length.  Coefficients are taken through `operator.index`, so a
non-integer input (a float or a rational number) raises TypeError rather
than being truncated.  Every division must come out exact: expanding num/den
or taking a square root raises ArithmeticError ("inexact division") at the
first coefficient that is not an integer.  Everything here is exact, so these
routines can serve as ground truth when cross-checking generating-function
identities elsewhere in the package.

`_exact` is the package's one checked exact division: this module imports
nothing from the package, so `pfaffian`, `counts` and `paths` import it
from here.
"""

from __future__ import annotations

from math import isqrt
from operator import index

Coeffs = tuple[int, ...]


def _as_coeffs(values) -> Coeffs:
    return tuple(map(index, values))


def _exact(num: int, den: int) -> int:
    """num / den, which the calling algorithm makes an integer: the one
    division of the package's exact algorithms (the expansions here,
    `pfaffian`'s condensation and elimination, `counts`' ladder, and
    `paths.delannoy`'s recurrence).  A remainder means the input broke what
    the algorithm assumes, and raises ArithmeticError("inexact division")
    rather than give a wrong value."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("inexact division")
    return q


def expand_rational(num, den, order: int) -> Coeffs:
    """Expand num(z)/den(z) to the first `order` coefficients.

    num and den are coefficient sequences, constant term first.  Raises
    ValueError if den has a zero constant term (no power series exists), and
    ArithmeticError if a coefficient is not an integer.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num = _as_coeffs(num)
    den = _as_coeffs(den)
    if not den or den[0] == 0:
        raise ValueError("denominator needs a nonzero constant term")
    out = []
    for k in range(order):
        acc = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(_exact(acc, den[0]))
    return tuple(out)


def subtract(a, b) -> Coeffs:
    a, b = _as_coeffs(a), _as_coeffs(b)
    n = min(len(a), len(b))
    return tuple(a[i] - b[i] for i in range(n))


def multiply(a, b, order: int | None = None) -> Coeffs:
    """Truncated Cauchy product; defaults to the shorter input's order."""
    a, b = _as_coeffs(a), _as_coeffs(b)
    n = min(len(a), len(b)) if order is None else order
    out = []
    for k in range(n):
        acc = 0
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            acc += a[i] * b[k - i]
        out.append(acc)
    return tuple(out)


def sqrt(a) -> Coeffs:
    """Power-series square root with the positive branch at z=0.

    The constant term must be the square of a positive integer; otherwise
    ValueError is raised.  ArithmeticError is raised if a later coefficient
    of the root is not an integer.
    """
    a = _as_coeffs(a)
    if not a:
        return ()
    c0 = a[0]
    if c0 <= 0 or isqrt(c0) ** 2 != c0:
        raise ValueError("constant term must be a positive perfect square")
    r = [isqrt(c0)]
    for k in range(1, len(a)):
        acc = a[k]
        for i in range(1, k):
            acc -= r[i] * r[k - i]
        r.append(_exact(acc, 2 * r[0]))
    return tuple(r)


def schroeder_numbers(count: int) -> tuple[int, ...]:
    """First `count` large Schroeder numbers 1, 2, 6, 22, 90, ...

    Computed from the algebraic generating function
    (1 - z - sqrt(1 - 6z + z^2)) / (2z), expanded exactly.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    order = count + 1
    root = sqrt(expand_rational((1, -6, 1), (1,), order))
    numer = subtract(expand_rational((1, -1), (1,), order), root)
    if numer and numer[0] != 0:
        raise ArithmeticError("numerator lost its zero constant term")
    return tuple(_exact(c, 2) for c in numer[1:])
