import random
import time
from itertools import combinations
from operator import mul

import pytest

import offdiag.counts
import offdiag.matrices
import offdiag.pfaffian
import offdiag.verify
from offdiag.counts import (
    _o_entry,
    _o_vector_direct,
    count_nearly,
    count_off_diag,
    d_entry_bordered,
    d_vector,
    even_order_full,
    o_vector,
)
from offdiag.matrices import (MAX_ORDER, _a_block, _x_row, defect_weights,
                              matrix_a, matrix_b, pell_vector)
from offdiag.paths import delannoy
from offdiag.pfaffian import (SkewMatrix, _leading_rungs, pfaffian_cofactor,
                              principal_submatrix)

O_VECTORS = {
    1: (1,),
    3: (2, 2, 2),
    5: (12, 36, 60, 36, 12),
    7: (312, 1560, 3640, 4472, 3640, 1560, 312),
    9: (30992, 216944, 708048, 1361264, 1709328, 1361264, 708048, 216944,
        30992),
}

D_VECTORS = {
    ("pm", 3): (4, 8, 4),
    ("minus", 3): (0, 4, 0),
    ("plus", 3): (4, 4, 4),
    ("pm", 5): (24, 96, 72, 96, 24),
    ("minus", 5): (0, 24, 48, 24, 0),
    ("plus", 5): (24, 72, 24, 72, 24),
    ("pm", 7): (624, 3744, 4784, 3328, 4784, 3744, 624),
    ("minus", 7): (0, 624, 2496, 1040, 2496, 624, 0),
    ("plus", 7): (624, 3120, 2288, 2288, 2288, 3120, 624),
}


def fresh_pfaffian(m):
    """Pf of an even-order matrix of the package, whose leading pivots are
    counts: the last pivot of one fresh pass over it, checked against the
    cofactor route where that is cheap (order <= 16)."""
    got = _leading_rungs(m.rows, [0] * m.order)[-1][0]
    if m.order <= 16:
        assert got == pfaffian_cofactor(m)
    return got


def test_o_vector_fixtures():
    for n, want in O_VECTORS.items():
        assert o_vector(n) == want


def test_o_vector_is_palindromic():
    for n in range(1, 22, 2):
        vec = o_vector(n)
        assert vec == tuple(reversed(vec))


def test_o_vector_bordered_route_matches_direct():
    for n in range(1, 42, 2):
        assert o_vector(n) == _o_vector_direct(n)


def test_o_entry_is_the_o_vector_entry():
    # read off the kernel vector with its sign flipped at even labels
    for n in range(1, 22, 2):
        assert tuple(_o_entry(n, k) for k in range(1, n + 1)) == o_vector(n)


def test_o_vector_rejects_even_orders():
    with pytest.raises(ValueError):
        o_vector(4)
    with pytest.raises(ValueError):
        o_vector(0)


def test_count_off_diag_subsets():
    assert count_off_diag(3, ()) == 1
    assert count_off_diag(3, (2, 3)) == 2
    assert count_off_diag(5, (1, 2, 3, 4)) == 12
    assert count_off_diag(5) == 0  # odd full set
    assert count_off_diag(6) == 312
    for k in range(1, 6):
        kept = tuple(i for i in range(1, 6) if i != k)
        assert count_off_diag(5, kept) == O_VECTORS[5][k - 1]
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            count_off_diag(n)
    for kept in ((0,), (4,)):
        with pytest.raises(ValueError, match=r"labels must be within 1\.\.3"):
            count_off_diag(3, kept)
    with pytest.raises(ValueError, match=r"kept labels repeat: \[1, 1, 2\]"):
        count_off_diag(3, (2, 1, 1))


def test_count_off_diag_reads_one_build_of_a(monkeypatch, empty_ladders):
    # every even kept set at every order up to 16 is one principal block of
    # A, built once unless the set is leading ({1, ..., 2t}, read off the
    # ladder), and an odd one counts 0 and builds nothing; every kept set
    # gives the cofactor Pfaffian of the principal submatrix of A(n), all
    # of them at n <= 8, and every even kept set of [12] counts at least 1,
    # so no leading pivot is 0
    blocks = []
    block = offdiag.counts._a_block

    def counted(idx):
        blocks.append(len(idx))
        return block(idx)

    monkeypatch.setattr(offdiag.counts, "_a_block", counted)

    def by_cofactor(n, kept):
        return pfaffian_cofactor(principal_submatrix(matrix_a(n), kept))

    rng = random.Random(11)
    kept_sets = []  # each kept set asked
    for n in range(16, 0, -1):
        kept = rng.sample(range(1, n + 1), rng.randint(0, n))
        assert count_off_diag(n) == pfaffian_cofactor(matrix_a(n))
        assert count_off_diag(n, kept) == by_cofactor(n, kept)
        kept_sets += [range(1, n + 1), kept]
    for n in range(1, 9):
        for size in range(n + 1):
            for kept in combinations(range(1, n + 1), size):
                assert count_off_diag(n, kept) == by_cofactor(n, kept)
                kept_sets.append(kept)
    for size in range(0, 13, 2):
        for kept in combinations(range(1, 13), size):
            assert count_off_diag(12, kept) >= 1
            kept_sets.append(kept)
    assert blocks == [len(kept) for kept in kept_sets if len(kept) % 2 == 0
                      and sorted(kept) != list(range(1, len(kept) + 1))]
    assert len(blocks) > 1000


def test_count_nearly_fixtures():
    assert count_nearly(1) == 2
    assert count_nearly(3) == 16
    assert count_nearly(5) == 312
    assert count_nearly(7) == 21632
    with pytest.raises(ValueError):
        count_nearly(4)


def test_nearly_equals_defect_totals():
    for n in (1, 3, 5, 7, 9):
        assert count_nearly(n) == sum(d_vector("pm", n))


def test_d_vector_fixtures():
    for (variant, n), want in D_VECTORS.items():
        assert d_vector(variant, n) == want
    assert d_vector("pm", 1) == (2,)
    assert d_vector("plus", 1) == (2,)
    assert d_vector("minus", 1) == (0,)


def test_d_vector_variants_are_consistent():
    for n in (1, 3, 5, 7, 9):
        pm = d_vector("pm", n)
        plus = d_vector("plus", n)
        minus = d_vector("minus", n)
        assert all(pm[k] == plus[k] + minus[k] for k in range(n))


def test_d_entry_bordered_matches_d_vector():
    for n in (1, 3, 5, 7):
        for variant in ("pm", "minus", "plus"):
            vec = d_vector(variant, n)
            for k in range(1, n + 1):
                assert d_entry_bordered(variant, n, k) == vec[k - 1]
    # and at a large order, where each is one fresh pass over A(61)
    for variant in ("pm", "minus"):
        vec = d_vector(variant, 61)
        for k in (1, 17, 31):
            assert d_entry_bordered(variant, 61, k) == vec[k - 1]


def test_bordered_cells_are_the_single_cell_entries():
    # one pass carries every cell's weights; each entry is the one-cell
    # route's, for every variant, a subset of the cells and any order
    for n in (1, 5, 9):
        for variant in ("pm", "minus", "plus"):
            cells = [k for k in range(n, 0, -1) if k % 3 != 1]
            assert offdiag.counts._bordered_cells(variant, n, cells) == tuple(
                d_entry_bordered(variant, n, k) for k in cells)
    assert offdiag.counts._bordered_cells("pm", 5, ()) == ()
    with pytest.raises(ValueError, match="^cell index must be within"):
        offdiag.counts._bordered_cells("pm", 5, (1, 6))


def test_each_verification_route_is_one_pass(monkeypatch):
    # `_o_vector_direct(n)` and the defect route's cells of one (n,
    # variant) each ride on one pass over A(n): (n - 1)/2 condensation steps
    steps = []
    condense = offdiag.pfaffian._condense_rows

    def counted(*args):
        steps.append(len(args[2]))
        return condense(*args)

    monkeypatch.setattr(offdiag.pfaffian, "_condense_rows", counted)
    for n in (1, 3, 9, 21):
        del steps[:]
        assert _o_vector_direct(n) == o_vector(n)
        assert len(steps) == (n - 1) // 2
        for variant in ("pm", "minus", "plus"):
            del steps[:]
            offdiag.counts._bordered_cells(variant, n, range(1, n + 1))
            assert len(steps) == (n - 1) // 2
    del steps[:]
    check = offdiag.verify.CHECKS["identities"]["defect-entry-routes-agree"]
    assert check(21).ok
    assert len(steps) == sum(2 * ((n - 1) // 2) for n in range(1, 22, 2))


def test_pm_cells_satisfy_the_delannoy_matrix_equation():
    # d_vector("pm") is read off the ladder's rung, not dotted with the
    # weights, so check the paper's Delannoy matrix equation, the weights
    # route, at large orders
    for n in (61, 121, 199):
        x = offdiag.counts._kernel(n)
        vec = d_vector("pm", n)
        for k in (1, (n + 1) // 2, n):
            assert vec[k - 1] == sum(map(mul, defect_weights("pm", n, k), x))


def test_every_defect_cell_is_the_weights_dot_product():
    # the paper's Delannoy matrix equation, computed here by the weights
    # route: entry k of d_vector(variant, n) is cell k's `defect_weights`
    # dotted with A's kernel vector, for every variant and every cell, at
    # every odd n <= 61 and at 199
    for n in [*range(1, 62, 2), 199]:
        x = offdiag.counts._kernel(n)
        for variant in ("pm", "minus", "plus"):
            assert d_vector(variant, n) == tuple(
                sum(map(mul, defect_weights(variant, n, k), x))
                for k in range(1, n + 1)), (variant, n)


def test_d_entry_bordered_guards():
    with pytest.raises(ValueError):
        d_entry_bordered("pm", 4, 1)
    with pytest.raises(ValueError):
        d_entry_bordered("pm", 3, 0)
    with pytest.raises(ValueError):
        d_entry_bordered("pm", 3, 4)
    with pytest.raises(ValueError):
        d_entry_bordered("both", 3, 1)
    with pytest.raises(ValueError):
        d_vector("pm", 4)
    with pytest.raises(ValueError):
        d_vector("both", 3)


def test_even_order_full():
    assert even_order_full(2) == 2
    assert even_order_full(4) == 12
    assert even_order_full(6) == 312
    assert even_order_full(8) == 30992
    with pytest.raises(ValueError):
        even_order_full(5)
    with pytest.raises(ValueError):
        even_order_full(0)


def test_adjacent_order_coincidences():
    # the full even-order count reappears at both ends of the next deletion
    # vector, and as its own bordered count family
    for m in (1, 2, 3, 4):
        assert even_order_full(2 * m) == o_vector(2 * m + 1)[0]


def test_ratio_identities():
    for n in range(3, 22, 2):
        o = o_vector(n)
        assert o[1] == (n - 2) * o[0]
        d = d_vector("pm", n)
        assert d[1] == (n - 1) * d[0]


def test_one_pass_ladders_match_per_order_counts():
    # ask for the largest orders first, as the scans do, so the lower orders
    # are rung reads of one grown pass; compare every rung with per-order
    # Pfaffians (a fresh pass per order) and with the n separate Pfaffians
    # of the direct deletion route
    even_order_full(42)
    o_vector(41)
    for m in range(1, 22):
        assert even_order_full(2 * m) == fresh_pfaffian(matrix_a(2 * m))
        assert count_nearly(2 * m - 1) == fresh_pfaffian(matrix_b(2 * m))
    for n in range(1, 42, 2):
        assert o_vector(n) == _o_vector_direct(n)
    with pytest.raises(ValueError):
        even_order_full(0)
    with pytest.raises(ValueError):
        o_vector(8)


def test_ladder_matches_the_condensation_of_a(empty_ladders):
    # the ladder runs on X, whose leading Pfaffians, bordered by 2 or not,
    # are those of A bordered by the Pell column: at every even order
    # N <= 64 and at 100, one fresh condensation of A(N) bordered by
    # pell_vector(N) has every rung's end entry p_t as its pivot and twice
    # the rung's sum as its border entry, and the kernel vector of A(N - 1)
    # that o_vector reads annihilates every row of A(N - 1) and ends in
    # that condensation's pivot, which fixes it
    for order in [*range(2, 65, 2), 100]:
        top = order // 2
        fresh = _leading_rungs(matrix_a(order).rows, pell_vector(order))
        rungs = offdiag.counts._ladder(top)
        assert [(y[-1], 2 * sum(y)) for y in rungs[:top]] + [
            (rungs[top][-1], None)] == fresh
        if order < 64:
            x = offdiag.counts._kernel(order - 1)
            assert x[-1] == fresh[top - 1][0]
            assert not any(sum(map(mul, row, x))
                           for row in matrix_a(order - 1).rows)


def test_ladder_rungs_are_the_deletion_pfaffians_of_x(empty_ladders):
    # rung t is y_t[k] = (-1)^k Pf(X(2t + 1) minus k), k = 0..2t, by the
    # cofactor route, at every t <= 5; rung 0 is the empty Pfaffian and
    # rung 1 is (c_1, -c_2, c_1)
    row = _x_row(11)
    rungs = offdiag.counts._ladder(5)
    assert rungs[:2] == [(1,), (2, 4, 2)] == [(1,), (row[1], -row[2], row[1])]
    for t in range(6):
        n = 2 * t + 1
        x = SkewMatrix([[row[j - i] if i <= j else -row[i - j]
                         for j in range(n)] for i in range(n)])
        assert rungs[t] == tuple(
            (-1) ** k * pfaffian_cofactor(principal_submatrix(
                x, [i for i in range(1, n + 1) if i != k + 1]))
            for k in range(n))


def test_leading_kept_sets_read_the_ladder(monkeypatch, empty_ladders):
    # a kept set {1, ..., 2t}, the full set at even n among them, is the
    # leading block A(2t), whose Pfaffian is the ladder's p_t: at every
    # n <= 40 each leading kept set counts what a fresh pass over that
    # block of A gives, and none builds a block of A
    fresh = [_leading_rungs(_a_block(range(k)), [0] * k)[-1][0]
             for k in range(0, 41, 2)]
    blocks = []
    monkeypatch.setattr(offdiag.counts, "_a_block", blocks.append)
    for n in range(1, 41):
        for k in range(0, n + 1, 2):
            assert count_off_diag(n, range(1, k + 1)) == fresh[k // 2]
            assert count_off_diag(n, reversed(range(1, k + 1))) == fresh[
                k // 2]
        if n % 2 == 0:
            assert count_off_diag(n) == fresh[n // 2]
    assert blocks == []


@pytest.mark.parametrize("arrange", ["descending", "ascending", "shuffled"])
def test_memo_answers_match_the_independent_routes(arrange, empty_ladders):
    orders = list(range(1, 24))
    if arrange == "descending":
        orders.reverse()
    elif arrange == "shuffled":
        random.Random(5).shuffle(orders)
    for n in orders:
        if n % 2:
            assert o_vector(n) == _o_vector_direct(n)
            assert count_nearly(n) == fresh_pfaffian(matrix_b(n + 1))
        else:
            assert even_order_full(n) == fresh_pfaffian(matrix_a(n))


def test_repeated_and_smaller_requests_run_no_pass(monkeypatch,
                                                   empty_ladders):
    # the references run their own passes, so they run before the spies
    want = (fresh_pfaffian(matrix_b(22)), fresh_pfaffian(matrix_a(22)))
    direct = _o_vector_direct(21)
    extensions, built, solved = [], [], []
    x_row, rung = offdiag.counts._x_row, offdiag.counts._rung
    block = offdiag.counts._a_block

    def counted_row(n):
        extensions.append(n)
        return x_row(n)

    def counted_rung(c, w, q):
        built.append(len(w) // 2 + 1)
        return rung(c, w, q)

    def counted_block(idx):
        solved.append(len(idx))
        return block(idx)

    monkeypatch.setattr(offdiag.counts, "_x_row", counted_row)
    monkeypatch.setattr(offdiag.counts, "_rung", counted_rung)
    monkeypatch.setattr(offdiag.counts, "_a_block", counted_block)
    # one ladder: o_vector(19) reads rung 9 of the ladder that
    # even_order_full(20) extended to rung 10, and a repeated one the
    # vector memo; each extension reads X's first row once
    even_order_full(20)
    assert o_vector(19) == o_vector(19)
    assert extensions == [21] and built == list(range(2, 11))
    assert solved == [19]
    extensions.clear()
    built.clear()
    solved.clear()
    for n in (20, 18, 2, 12):
        even_order_full(n)
    for n in (19, 1, 7, 17):
        count_nearly(n)
        o_vector(n)
        d_vector("plus", n)
    for m in range(1, 11):  # every rung a scan to m = 10 reads
        even_order_full(2 * m)
        count_nearly(2 * m - 1)
        o_vector(2 * m - 1)
    assert extensions == built == []
    # each order's vector is solved and checked once, when first asked
    assert sorted(solved) == list(range(1, 18, 2))
    # a larger request extends the ladder from its last two rungs by the
    # one rung it adds, and that serves the rest
    assert (count_nearly(21), even_order_full(22)) == want
    assert o_vector(21) == direct
    assert extensions == [23] and built == [11] and solved[-1] == 21


def test_memo_work_does_not_depend_on_the_request_order(monkeypatch):
    # a larger request extends the ladder from its last two rungs, so
    # however the orders arrive no rung is built twice: every order of the
    # requests costs the same exact divisions as one extension to the
    # largest order (the first, descending)
    computed = []
    exact = offdiag.counts._exact

    def counted(num, den):
        computed.append(1)
        return exact(num, den)

    monkeypatch.setattr(offdiag.counts, "_exact", counted)
    shuffled = list(range(1, 32))
    random.Random(7).shuffle(shuffled)
    totals = []
    for orders in (range(31, 0, -1), range(1, 32), shuffled):
        monkeypatch.setattr(offdiag.counts, "_rungs", [(1,)])
        monkeypatch.setattr(offdiag.counts, "_row", [0])
        monkeypatch.setattr(offdiag.counts, "_kernels", {})
        computed.clear()
        for n in orders:
            if n % 2:
                o_vector(n)
                count_nearly(n)
            else:
                even_order_full(n)
        totals.append(sum(computed))
    assert totals[0] > 0 and totals == [totals[0]] * 3, totals


def test_refused_requests_leave_the_memos_unchanged(monkeypatch,
                                                    empty_ladders):
    def memos():
        return (list(offdiag.counts._rungs), dict(offdiag.counts._kernels))

    x_row = offdiag.counts._x_row

    def zero_pivot_past_1(n):
        # an extension reads X's first row to the rung it needs; past the
        # memo (rung 1 here), c_4 = -32 makes a = 64 + 2 c_4, and so p_2,
        # zero in the step to rung 2
        return x_row(n)[:4] + [-32] + [0] * (n - 5)

    even_order_full(2)
    o_vector(3)
    before = memos()
    assert len(before[0]) == 2 and list(before[1]) == [3]
    for call in (lambda: even_order_full(MAX_ORDER + 2),
                 lambda: count_nearly(MAX_ORDER + 1),
                 lambda: o_vector(MAX_ORDER + 1),
                 lambda: d_vector("pm", MAX_ORDER + 1)):
        with pytest.raises(ValueError, match="largest supported order"):
            call()
    monkeypatch.setattr(offdiag.counts, "_x_row", zero_pivot_past_1)
    for call in (lambda: even_order_full(4), lambda: count_nearly(5),
                 lambda: o_vector(5), lambda: d_vector("pm", 5),
                 lambda: even_order_full(12), lambda: count_off_diag(4)):
        with pytest.raises(ArithmeticError, match="zero pivot"):
            call()
    assert memos() == before


def test_oversized_requests_are_refused_before_building(empty_ladders,
                                                       forbid_a):
    cached = delannoy.cache_info().currsize
    forbid_a()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="order 2402; the largest supported"):
        d_entry_bordered("pm", 2401, 1200)
    assert time.perf_counter() - start < 0.5
    assert delannoy.cache_info().currsize == cached
    assert MAX_ORDER == 200


def test_bad_variants_and_cells_are_refused_before_building(empty_ladders,
                                                            forbid_a):
    # checked in the order parity, condensation order, variant, cell, all
    # before the ladder or the bordered Pfaffian reads A
    forbid_a()
    cells = offdiag.counts._defect_cells
    for call in (lambda: cells("bogus", 100, [0]),
                 lambda: d_entry_bordered("bogus", 100, 0)):
        with pytest.raises(ValueError, match="defined for odd n"):
            call()
    for call in (lambda: d_vector("bogus", 101),
                 lambda: cells("bogus", 101, [0]),
                 lambda: d_entry_bordered("bogus", 101, 102)):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            call()
    for call in (lambda: cells("pm", 101, [102]),
                 lambda: cells("minus", 101, [0]),
                 lambda: cells("plus", 101, [1, 102]),
                 lambda: d_entry_bordered("pm", 101, 102)):
        with pytest.raises(ValueError, match=r"within 1\.\.101"):
            call()
    assert offdiag.counts._rungs == [(1,)]
    assert offdiag.counts._kernels == {}


def test_float_orders_are_refused_before_building(empty_ladders, forbid_a):
    # orders go through operator.index, so a float order raises TypeError
    # before A is read or either memo changes; a bool is an index
    assert o_vector(True) == O_VECTORS[1]
    forbid_a()
    before = (list(offdiag.counts._rungs), dict(offdiag.counts._kernels))
    for call in (lambda: o_vector(3.0), lambda: d_vector("pm", 3.0),
                 lambda: even_order_full(4.0), lambda: count_nearly(3.0),
                 lambda: count_off_diag(3.0),
                 lambda: d_entry_bordered("pm", 3.0, 1),
                 lambda: d_entry_bordered("pm", 3, 1.0)):
        with pytest.raises(TypeError):
            call()
    assert (offdiag.counts._rungs, offdiag.counts._kernels) == before


def test_order_bound_admits_exactly_max_order(monkeypatch):
    monkeypatch.setattr(offdiag.matrices, "MAX_ORDER", 8)
    assert count_nearly(7) == 21632            # order 8
    assert even_order_full(8) == 30992
    assert d_entry_bordered("pm", 7, 1) == 624
    assert o_vector(7) == O_VECTORS[7]
    assert count_off_diag(8) == 30992
    for call in (lambda: count_nearly(9), lambda: even_order_full(10),
                 lambda: d_entry_bordered("pm", 9, 1), lambda: o_vector(9),
                 lambda: d_vector("pm", 9), lambda: count_off_diag(9)):
        with pytest.raises(ValueError, match="largest supported order is 8"):
            call()


def test_corrupted_steps_never_give_a_wrong_deletion_vector(monkeypatch,
                                                            empty_ladders):
    # shift one entry of a stored rung of the ladder, kept to rung
    # (n - 1)/2, which o_vector(n) reads, or to the rung before, which the
    # read then extends from: the recurrence raises on a zero or an
    # inexact division, its row-1 check raises on a rung off the kernel of
    # X, o_vector's check against rows 2..n of A(n) raises on a vector off
    # the kernel of A, or the rung was not read and the vector is the true
    # one.  62 of the 593 raise at the row-1 check.  A check against A
    # alone would miss some of those: it fixes a vector up to scale only,
    # and a shifted rung 0, or rung 2's middle entry + 1 read at order 7,
    # scales the rungs built on it (to 53/52 of the true vector there).
    even_order_full(12)
    true = list(offdiag.counts._rungs)
    raised = kept = 0
    for n in range(3, 12, 2):
        want = _o_vector_direct(n)
        for top in (n // 2 - 1, n // 2):
            for s in range(top + 1):
                for j, entry in enumerate(true[s]):
                    for delta in {1, -1, 2, 3, 7, 100, entry,
                                  -2 * entry} - {0}:
                        bad = true[:top + 1]
                        bad[s] = (*bad[s][:j], entry + delta,
                                  *bad[s][j + 1:])
                        monkeypatch.setattr(offdiag.counts, "_rungs", bad)
                        monkeypatch.setattr(offdiag.counts, "_kernels", {})
                        try:
                            got = o_vector(n)
                        except ArithmeticError:
                            raised += 1
                        else:
                            assert got == want, (n, top, s, j, delta)
                            kept += 1
    assert (raised, kept) == (593, 539)


def test_a_corrupted_row_never_gives_a_wrong_defect_count(monkeypatch,
                                                          capsys,
                                                          empty_ladders):
    # shift one entry of the row of X that the ladder keeps: "minus" and
    # "plus" read c_1..c_(n-1) at order n, each checked by row 0 of
    # X(n) y = 0, whose y entries are positive counts, so every shift of
    # one of them raises (exit 3 from the command line, with nothing
    # printed), and a shift of c_0 or of an entry past n - 1 changes
    # nothing; "pm" reads no row
    from offdiag.cli import main

    o_vector(13)
    true = list(offdiag.counts._row)
    assert len(true) == 13
    wants = {n: {variant: d_vector(variant, n)
                 for variant in ("pm", "minus", "plus")}
             for n in range(1, 14, 2)}
    raised = kept = 0
    for n, want in wants.items():
        for j, entry in enumerate(true):
            for delta in {1, -1, 2, 7, entry, -2 * entry} - {0}:
                bad = [*true[:j], entry + delta, *true[j + 1:]]
                monkeypatch.setattr(offdiag.counts, "_row", bad)
                assert d_vector("pm", n) == want["pm"]
                for variant in ("minus", "plus"):
                    try:
                        got = d_vector(variant, n)
                    except ArithmeticError:
                        raised += 1
                        assert 0 < j < n, (n, j, delta)
                    else:
                        assert got == want[variant], (variant, n, j, delta)
                        kept += 1
                code = main(["count", "dminus", "--n", str(n),
                             "--k", str(n)])
                out, err = capsys.readouterr()
                if 0 < j < n:
                    assert (code, out) == (3, ""), (n, j, delta)
                    assert "kept row of X" in err
                else:
                    assert (code, out) == (0, f"{want['minus'][-1]}\n")
    # 4, 5 and 6 distinct shifts of c_0 = 0, c_1 = 2 and each later entry:
    # 246 of the 525 (order, entry, shift) triples shift a read entry
    assert (raised, kept) == (2 * 246, 2 * 279)


def test_a_wrong_delannoy_entry_never_gives_a_wrong_deletion_vector(
        monkeypatch, empty_ladders):
    # o_vector's P^(-T) solve reads no Delannoy number, so shift instead
    # each single entry of the vector it solves: the vector leaves the
    # kernel of A(n), which the check against rows 2..n refuses, and
    # nothing is kept; d_vector("pm"), read off the rung only once that
    # check has passed, is refused too
    solve = offdiag.counts._solve_delannoy
    for n in (3, 5, 7, 9):
        assert o_vector(n) == O_VECTORS[n]
        for j in range(n):
            def shifted(y, j=j):
                x = solve(y)
                x[j] += 1
                return x

            monkeypatch.setattr(offdiag.counts, "_solve_delannoy", shifted)
            monkeypatch.setattr(offdiag.counts, "_kernels", {})
            for call in (lambda: o_vector(n), lambda: d_vector("pm", n)):
                with pytest.raises(ArithmeticError, match="off the kernel"):
                    call()
            assert offdiag.counts._kernels == {}
        monkeypatch.setattr(offdiag.counts, "_solve_delannoy", solve)
