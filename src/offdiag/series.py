"""Exact truncated power series over rational coefficients.

A series is a plain tuple of Fractions, constant term first; its order is the
tuple length.  Everything here is exact, so these routines can serve as
ground truth when cross-checking generating-function identities elsewhere in
the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Coeffs = tuple[Fraction, ...]


def _as_coeffs(values) -> Coeffs:
    return tuple(Fraction(v) for v in values)


def expand_rational(num, den, order: int) -> Coeffs:
    """Expand num(z)/den(z) to the first `order` coefficients.

    num and den are coefficient sequences, constant term first.  Raises
    ValueError if den has a zero constant term (no power series exists).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num = _as_coeffs(num)
    den = _as_coeffs(den)
    if not den or den[0] == 0:
        raise ValueError("denominator needs a nonzero constant term")
    out = []
    for k in range(order):
        acc = num[k] if k < len(num) else Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / den[0])
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
        acc = Fraction(0)
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            acc += a[i] * b[k - i]
        out.append(acc)
    return tuple(out)


def sqrt(a) -> Coeffs:
    """Power-series square root with the positive branch at z=0.

    The constant term must be the square of a nonzero rational; otherwise
    the square root is not a rational power series and ValueError is raised.
    """
    a = _as_coeffs(a)
    if not a:
        return ()
    c0 = a[0]
    if c0 <= 0:
        raise ValueError("constant term must be a positive perfect square")
    p, q = c0.numerator, c0.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise ValueError("constant term must be a positive perfect square")
    r = [Fraction(rp, rq)]
    for k in range(1, len(a)):
        acc = a[k]
        for i in range(1, k):
            acc -= r[i] * r[k - i]
        r.append(acc / (2 * r[0]))
    return tuple(r)


def integer_coeffs(a) -> tuple[int, ...]:
    """Cast a series to ints, refusing any non-integer coefficient."""
    a = _as_coeffs(a)
    for i, c in enumerate(a):
        if c.denominator != 1:
            raise ValueError(f"coefficient {i} is not an integer: {c}")
    return tuple(c.numerator for c in a)


def poly_multiply(p, q) -> Coeffs:
    """Full (untruncated) polynomial product."""
    p, q = _as_coeffs(p), _as_coeffs(q)
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return tuple(out)


def poly_power(p, k: int) -> Coeffs:
    if k < 0:
        raise ValueError("negative power")
    out: Coeffs = (Fraction(1),)
    for _ in range(k):
        out = poly_multiply(out, p)
    return out


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
    return integer_coeffs(tuple(c / 2 for c in numer[1:]))
