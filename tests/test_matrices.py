import random
import time
from operator import mul

import pytest

from offdiag.matrices import (
    MAX_ORDER,
    _a_block,
    _extend_a,
    _x_row,
    defect_weights,
    g_sequence,
    matrix_a,
    matrix_b,
    matrix_r,
    pell_vector,
    r_value,
    t_array,
)
from offdiag.paths import delannoy
from offdiag.pfaffian import pfaffian_cofactor

FIRST_ROW_TABLE = (
    (1,),
    (1, 0),
    (1, 2, 2),
    (1, 4, 8, 4),
    (1, 6, 18, 30, 18),
    (1, 8, 32, 80, 128, 72),
    (1, 10, 50, 162, 370, 570, 322),
)

T_TABLE = (
    (1, -2, 2, -10, 18, -50, 114),
    (1, 0, 0, -8, 0, -32, 32),
    (1, 2, 2, -6, -14, -46, -46),
    (1, 4, 8, 4, -16, -76, -168),
    (1, 6, 18, 30, 18, -74, -318),
    (1, 8, 32, 80, 128, 72, -320),
    (1, 10, 50, 162, 370, 570, 322),
)


def test_matrix_a_fixtures():
    assert matrix_a(4).rows == (
        (0, 2, 2, 2),
        (-2, 0, 2, 6),
        (-2, -2, 0, 10),
        (-2, -6, -10, 0),
    )
    assert matrix_a(5).rows == (
        (0, 2, 2, 2, 2),
        (-2, 0, 2, 6, 10),
        (-2, -2, 0, 10, 26),
        (-2, -6, -10, 0, 34),
        (-2, -10, -26, -34, 0),
    )
    # leading principal blocks are stable as the order grows
    big = matrix_a(9)
    small = matrix_a(5)
    for i in range(5):
        assert big.rows[i][:5] == small.rows[i]


def test_matrix_a_pfaffians():
    assert pfaffian_cofactor(matrix_a(2)) == 2
    assert pfaffian_cofactor(matrix_a(4)) == 12
    assert pfaffian_cofactor(matrix_a(6)) == 312
    assert pfaffian_cofactor(matrix_a(3)) == 0
    with pytest.raises(ValueError):
        matrix_a(0)


def recurrence_table(n):
    """The rows of A(n), from its recurrence on one (n+1) x (n+1) table."""
    a = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i == 1:
                a[i][j] = 2
            elif j == i + 1:
                a[i][j] = a[i - 1][j] + a[i - 1][j - 1] + 2 * (-1) ** (i - 1)
            else:
                a[i][j] = a[i - 1][j] + a[i][j - 1] + a[i - 1][j - 1]
    return tuple(
        tuple(a[i][j] if i < j else -a[j][i] for j in range(1, n + 1))
        for i in range(1, n + 1))


def test_matrix_a_matches_its_recurrence_table():
    for n in (7, 1, 40, 23, 2):
        assert matrix_a(n).rows == recurrence_table(n)


def test_a_block_is_the_principal_block_on_the_indices_given():
    # random increasing, gappy index lists up to order 40 each give the
    # block of the table of A(40) on those rows and columns; the empty list
    # gives the empty block, and range(n) all of A(n)
    rng = random.Random(29)
    table = recurrence_table(40)
    requests = [[], [0], [39], [3, 17, 38]]
    while len(requests) < 24:
        n = rng.randint(4, 40)
        idx = sorted(rng.sample(range(n), rng.randint(2, n - 1)))
        if idx[-1] - idx[0] >= len(idx):
            requests.append(idx)
    for idx in requests:
        assert _a_block(idx) == [tuple(table[i][j] for j in idx)
                                 for i in idx]
    for n in (1, 2, 7, 23, 40):
        assert tuple(_a_block(range(n))) == matrix_a(n).rows


def test_extending_a_leading_block_gives_the_fresh_build():
    # the rows of A(m), extended to any larger order, are the rows a fresh
    # build of that order gives, and the rows extended are left as they
    # were; an order at or below m adds nothing
    table = recurrence_table(40)
    for m, order in ((0, 40), (1, 2), (2, 3), (7, 8), (13, 40), (39, 40),
                     (9, 9), (12, 5)):
        rows = _extend_a([], m)
        copy = list(rows)
        got = _extend_a(rows, order)
        assert rows == copy and got is not rows
        top = max(m, order)
        assert got == [tuple(table[i][:top]) for i in range(top)]
    with pytest.raises(ValueError, match="largest supported order"):
        _extend_a(_extend_a([], 3), MAX_ORDER + 1)


def test_matrix_a_refuses_orders_past_max_order():
    # refused before a column is built: matrix_a(2000) used to run 7 s
    start = time.perf_counter()
    for call, order in ((lambda: matrix_a(2000), 2000),
                        (lambda: matrix_a(MAX_ORDER + 1), MAX_ORDER + 1),
                        (lambda: matrix_b(MAX_ORDER + 2), MAX_ORDER + 1)):
        with pytest.raises(ValueError, match=f"^this request needs a "
                                             f"condensation of order {order}; "
                                             f"the largest supported order "
                                             f"is {MAX_ORDER}$"):
            call()
    assert time.perf_counter() - start < 0.05
    assert matrix_a(MAX_ORDER).order == MAX_ORDER


def test_pell_vector():
    assert pell_vector(6) == (2, 4, 10, 24, 58, 140)
    pell = pell_vector(20)
    for i in range(2, 20):
        assert pell[i] == 2 * pell[i - 1] + pell[i - 2]
    with pytest.raises(ValueError):
        pell_vector(0)
    # the order is an index before the loop runs: 3e4 used to compute for
    # 0.1 s before it raised
    start = time.perf_counter()
    with pytest.raises(TypeError):
        pell_vector(3e4)
    assert time.perf_counter() - start < 0.05


def test_smaller_orders_are_leading_blocks_and_prefixes():
    # the count ladders read every order off one pass of the largest
    big, pell = matrix_a(40), pell_vector(40)
    for n in range(1, 41):
        assert matrix_a(n).rows == tuple(row[:n] for row in big.rows[:n])
        assert pell_vector(n) == pell[:n]


def test_a_is_p_x_p_transposed_and_pell_is_p_times_two():
    # A(n) = P X(n) P^T and pell_vector(n) = P (2, ..., 2)^T exactly, with
    # P = [delannoy(i - j, j)] unit lower triangular and X(n) the skew
    # Toeplitz matrix of `_x_row`, at every n <= 40: P(n), X(n) and P(n)^T
    # are the leading blocks of P(40), X(40) and P(40)^T, and with P lower
    # triangular the leading n x n block of the product at 40 is their
    # product
    def times(a, b):
        return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]

    row = _x_row(40)  # c_k = 2 (-1)^(k-1) S_(k-1), S = 1, 2, 6, 22, 90, ...
    assert row[:6] == [0, 2, -4, 12, -44, 180]
    x = [[row[j - i] if i <= j else -row[i - j] for j in range(40)]
         for i in range(40)]
    p = [[delannoy(i - j, j) for j in range(40)] for i in range(40)]
    product = times(times(p, x), list(zip(*p)))
    for n in range(1, 41):
        assert _x_row(n) == row[:n]
        assert matrix_a(n).rows == tuple(tuple(r[:n]) for r in product[:n])
        assert pell_vector(n) == tuple(2 * sum(r[:n]) for r in p[:n])


def test_matrix_b_fixture():
    assert matrix_b(4).rows == (
        (0, 2, 2, 2),
        (-2, 0, 2, 4),
        (-2, -2, 0, 10),
        (-2, -4, -10, 0),
    )
    assert pfaffian_cofactor(matrix_b(4)) == 16
    assert pfaffian_cofactor(matrix_b(6)) == 312
    with pytest.raises(ValueError):
        matrix_b(3)
    with pytest.raises(ValueError):
        matrix_b(0)


def test_defect_weights_fixtures():
    rows = {variant: [defect_weights(variant, 3, k) for k in (1, 2, 3)]
            for variant in ("pm", "minus")}
    assert rows["pm"] == [(2, 2, 2), (0, 2, 6), (0, 0, 2)]
    assert rows["minus"] == [(0, 2, 2), (0, 0, 2), (0, 0, 0)]
    for n in (1, 3, 5, 7):
        for k in range(1, n + 1):
            pm = defect_weights("pm", n, k)
            minus = defect_weights("minus", n, k)
            assert defect_weights("plus", n, k) == tuple(
                p - m for p, m in zip(pm, minus))
    with pytest.raises(ValueError):
        defect_weights("both", 3, 1)


def test_defect_weights_are_the_delannoy_columns():
    # one place writes the weights; check them against the formulas
    for n in range(1, 10):
        for k in range(1, n + 1):
            pm = tuple(2 * delannoy(l - k, k - 1) for l in range(1, n + 1))
            minus = tuple(2 * delannoy(l - 1 - k, k - 1)
                          for l in range(1, n + 1))
            assert defect_weights("pm", n, k) == pm
            assert defect_weights("minus", n, k) == minus
            assert defect_weights("plus", n, k) == tuple(
                p - m for p, m in zip(pm, minus))
    for k in (0, 4):
        with pytest.raises(ValueError, match="cell index"):
            defect_weights("pm", 3, k)
    with pytest.raises(ValueError, match="unknown variant"):
        defect_weights("both", 3, 1)


def test_first_row_values_match_table():
    for n, row in enumerate(FIRST_ROW_TABLE, start=1):
        assert tuple(r_value(n, 1, j) for j in range(1, n + 1)) == row


def test_r_value_refuses_floats():
    # r_value(3, 1.0, 2) used to index the path kernel's dicts and return 2
    assert r_value(3, 1, 2) == 2
    for args in ((3, 1.0, 2), (3, 1, 2.0), (3.0, 1, 2)):
        with pytest.raises(TypeError):
            r_value(*args)
    for args in ((3, 0, 2), (3, 1, 4)):
        with pytest.raises(ValueError, match=r"must lie in 1\.\.n"):
            r_value(*args)


def test_matrix_r_fixtures():
    assert matrix_r(2) == ((-1, 0), (0, 1))
    assert matrix_r(3) == ((1, -2, 2), (0, -1, 2), (0, 0, 1))
    assert matrix_r(5) == (
        (1, -6, 18, -30, 18),
        (0, -1, 6, -18, 30),
        (0, 0, 1, -6, 18),
        (0, 0, 0, -1, 6),
        (0, 0, 0, 0, 1),
    )


def test_matrix_r_is_the_signed_kernel():
    # matrix_r is built from one t_array row; r_value is the path kernel
    for n in range(1, 22):
        assert matrix_r(n) == tuple(
            tuple((-1) ** (n + j) * r_value(n, i, j) for j in range(1, n + 1))
            for i in range(1, n + 1)), n


def test_matrix_r_is_involution():
    for n in range(1, 8):
        rows = matrix_r(n)
        for i in range(n):
            for j in range(n):
                entry = sum(rows[i][k] * rows[k][j] for k in range(n))
                assert entry == (1 if i == j else 0)


def test_t_array_matches_table():
    assert t_array(7, 7) == T_TABLE


def test_t_array_recurrence_and_edges():
    arr = t_array(9, 9)
    g = g_sequence(9)
    assert arr[0] == g
    for i in range(1, 9):
        assert arr[i][0] == 1
        for j in range(1, 9):
            assert arr[i][j] == arr[i - 1][j - 1] + arr[i - 1][j] + arr[i][j - 1]


def test_g_sequence():
    assert g_sequence(7) == (1, -2, 2, -10, 18, -50, 114)
    assert all(isinstance(v, int) for v in g_sequence(30))
