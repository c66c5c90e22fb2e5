"""A fixed, standard-library-only piece of work that times the host.

The benchmark's host slows every process by 10-70 % in phases that last from
seconds to minutes.  `run.py` times this work before and after each round of
workload processes, so that each round's times can be put in the host speed
of a reference phase (`scale`).  The work does not touch the offdiag package:
a change to the program cannot move it.  It leans on what the package leans
on: big-integer arithmetic, Fractions, lists and dicts in the interpreter.
"""

from __future__ import annotations

import time
from fractions import Fraction

# What `host_seconds()` takes in a quiet phase of the 2-vCPU virtual machine
# (CPython 3.11) the benchmark was built on.  Scaled times are in seconds of
# a host that runs the calibration work in this time.
REFERENCE_S = 0.25


def _bareiss(rows):
    m = [r[:] for r in rows]
    prev = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def _echelon(rows):
    rows = [r[:] for r in rows]
    for c in range(len(rows)):
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return rows[-1][-1]


def _work():
    n = 40
    ints = [[(7 * i + 13 * j) % 11 - 5 + 50 * (i == j) for j in range(n)]
            for i in range(n)]
    hilbert = [[Fraction(1, i + j + 1) for j in range(14)] for i in range(14)]
    table = {}
    for i in range(60000):
        table[i % 977] = table.get(i % 977, 0) + i
    return _bareiss(ints), _echelon(hilbert), len(table)


EXPECTED = _work()


def host_seconds(repeats: int = 10) -> float:
    """Time `repeats` rounds of the fixed work (about REFERENCE_S)."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        if _work() != EXPECTED:
            raise RuntimeError("the calibration work gave another answer")
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between calibrations that took `before` and
    `after`, in seconds of the reference host."""
    return seconds * REFERENCE_S / ((before + after) / 2)
