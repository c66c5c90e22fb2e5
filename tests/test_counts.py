import random
import time
from itertools import combinations

import pytest

import offdiag.counts
import offdiag.matrices
import offdiag.pfaffian
from offdiag.counts import (
    _o_vector_direct,
    count_nearly,
    count_off_diag,
    d_entry_bordered,
    d_vector,
    even_order_full,
    o_vector,
)
from offdiag.matrices import (MAX_ORDER, _x_row, matrix_a, matrix_b,
                              pell_vector)
from offdiag.paths import delannoy
from offdiag.pfaffian import (_deletion_vector, _LeadingPass, _ToeplitzPass,
                              pfaffian_cofactor, principal_submatrix)

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
    got = _LeadingPass(m.rows, [0] * m.order).pivot
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
    # A, and an odd one counts 0 and builds nothing; every kept set gives
    # the cofactor Pfaffian of the principal submatrix of A(n), all of them
    # at n <= 8, and every even kept set of [12] counts at least 1, so no
    # leading pivot is 0
    blocks = []
    block = offdiag.counts._a_block

    def counted(rows, cols):
        blocks.append(len(rows))
        return block(rows, cols)

    monkeypatch.setattr(offdiag.counts, "_a_block", counted)

    def by_cofactor(n, kept):
        return pfaffian_cofactor(principal_submatrix(matrix_a(n), kept))

    rng = random.Random(11)
    sizes = []  # the size of each kept set asked
    for n in range(16, 0, -1):
        kept = rng.sample(range(1, n + 1), rng.randint(0, n))
        assert count_off_diag(n) == pfaffian_cofactor(matrix_a(n))
        assert count_off_diag(n, kept) == by_cofactor(n, kept)
        sizes += [n, len(kept)]
    for n in range(1, 9):
        for size in range(n + 1):
            for kept in combinations(range(1, n + 1), size):
                assert count_off_diag(n, kept) == by_cofactor(n, kept)
                sizes.append(size)
    for size in range(0, 13, 2):
        for kept in combinations(range(1, 13), size):
            assert count_off_diag(12, kept) >= 1
            sizes.append(size)
    assert blocks == [size for size in sizes if size % 2 == 0]


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


def test_ladder_matches_the_condensation_of_a():
    # the ladder runs on X, whose leading Pfaffians, bordered by 2 or not,
    # are those of A bordered by the Pell column: at every even order
    # N <= 64 and at 100 the pass over X(N) has every rung of one fresh
    # condensation of A(N) bordered by pell_vector(N), and the kernel vector
    # of A(N - 1) that o_vector reads is the back-substitution through that
    # condensation
    for order in [*range(2, 65, 2), 100]:
        fresh = _LeadingPass(matrix_a(order).rows, pell_vector(order))
        ladder = _ToeplitzPass(2).resume(_x_row(order))
        assert [ladder.rung(t) for t in range(order // 2 + 1)] == [
            fresh.rung(t) for t in range(order // 2 + 1)]
        if order < 64:
            assert offdiag.counts._kernel(order - 1) == _deletion_vector(
                fresh, order - 1)


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
    passes, substituted = [], []
    resume = offdiag.pfaffian._ToeplitzPass.resume
    read = offdiag.counts._deletion_vector

    def counted(done, row):
        passes.append(len(row) - done.order)
        return resume(done, row)

    def counted_read(done, n):
        substituted.append(n)
        return read(done, n)

    monkeypatch.setattr(offdiag.pfaffian._ToeplitzPass, "resume", counted)
    monkeypatch.setattr(offdiag.counts, "_deletion_vector", counted_read)
    # one ladder: o_vector(19) is read off the pass over X(20) that
    # even_order_full(20) ran, and a repeated one off the vector memo
    even_order_full(20)
    assert o_vector(19) == o_vector(19)
    assert passes == [20] and substituted == [19]
    passes.clear()
    substituted.clear()
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
    assert passes == []
    # each order's vector is back-substituted once, when first asked
    assert sorted(substituted) == list(range(1, 18, 2))
    # a larger request resumes the pass: only the two columns it adds are
    # computed past the stored steps, and that serves the rest
    assert (count_nearly(21), even_order_full(22)) == want
    assert o_vector(21) == direct
    assert passes == [2] and substituted[-1] == 21


def test_memo_work_does_not_depend_on_the_request_order(monkeypatch):
    # a larger request resumes the ladder's pass, so however the orders
    # arrive no entry is computed twice: no order of the requests costs
    # more than one pass at the largest order (the first, descending).
    # Each entry the pass computes is one exact division.
    computed = []
    exact = offdiag.pfaffian._exact

    def counted(num, den):
        computed.append(1)
        return exact(num, den)

    monkeypatch.setattr(offdiag.pfaffian, "_exact", counted)
    shuffled = list(range(1, 32))
    random.Random(7).shuffle(shuffled)
    totals = []
    for orders in (range(31, 0, -1), range(1, 32), shuffled):
        monkeypatch.setattr(offdiag.counts, "_even_nearly_pass",
                            offdiag.pfaffian._ToeplitzPass(2))
        monkeypatch.setattr(offdiag.counts, "_kernels", {})
        computed.clear()
        for n in orders:
            if n % 2:
                o_vector(n)
                count_nearly(n)
            else:
                even_order_full(n)
        totals.append(sum(computed))
    assert max(totals) == totals[0], totals


def test_refused_requests_leave_the_memos_unchanged(monkeypatch,
                                                    empty_ladders):
    def memos():
        return (offdiag.counts._even_nearly_pass,
                dict(offdiag.counts._kernels))

    x_row = offdiag.counts._x_row

    def zero_pivot_past_4(n):
        # a resumed pass reads the columns a request adds past the memo
        # (order 4 here); c_4 = -2 and c_5 = 112 make Pf X(6), its next
        # pivot, zero
        return x_row(n)[:4] + [-2, 112] + [0] * (n - 6)

    even_order_full(4)
    o_vector(3)
    before = memos()
    assert before[0].order == 4 and list(before[1]) == [3]
    for call in (lambda: even_order_full(MAX_ORDER + 2),
                 lambda: count_nearly(MAX_ORDER + 1),
                 lambda: o_vector(MAX_ORDER + 1),
                 lambda: d_vector("pm", MAX_ORDER + 1)):
        with pytest.raises(ValueError, match="largest supported order"):
            call()
    monkeypatch.setattr(offdiag.counts, "_x_row", zero_pivot_past_4)
    for call in (lambda: even_order_full(6), lambda: count_nearly(5),
                 lambda: o_vector(5), lambda: d_vector("pm", 5),
                 lambda: even_order_full(12)):
        with pytest.raises(ArithmeticError, match="zero pivot"):
            call()
    now = memos()
    assert now[0] is before[0] and now[1] == before[1]


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
    for call in (lambda: d_vector("bogus", 101),
                 lambda: d_entry_bordered("bogus", 101, 102)):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            call()
    for call in (lambda: offdiag.counts._defect_cells("pm", 101, [102]),
                 lambda: d_entry_bordered("pm", 101, 102)):
        with pytest.raises(ValueError, match=r"within 1\.\.101"):
            call()
    assert offdiag.counts._even_nearly_pass.order == 0
    assert offdiag.counts._kernels == {}


def test_float_orders_are_refused_before_building(empty_ladders, forbid_a):
    # orders go through operator.index, so a float order raises TypeError
    # before A is read or either memo changes; a bool is an index
    assert o_vector(True) == O_VECTORS[1]
    forbid_a()
    before = (offdiag.counts._even_nearly_pass, dict(offdiag.counts._kernels))
    for call in (lambda: o_vector(3.0), lambda: d_vector("pm", 3.0),
                 lambda: even_order_full(4.0), lambda: count_nearly(3.0),
                 lambda: count_off_diag(3.0),
                 lambda: d_entry_bordered("pm", 3.0, 1),
                 lambda: d_entry_bordered("pm", 3, 1.0)):
        with pytest.raises(TypeError):
            call()
    assert (offdiag.counts._even_nearly_pass,
            offdiag.counts._kernels) == before


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
    # shift one entry of a stored pivot row of the ladder's pass over X(n + 1)
    # and read odd order n: the back-substitution raises on an inexact
    # division, o_vector's check against rows 2..n of A(n) raises on a
    # vector off the kernel, or the entry was not read and the vector is the
    # true one.  658 of the 990 raise at the kernel check, and a check
    # against the last row of A(n) alone misses 8 of those, among them step
    # 0's c_2 = -4 -> -3 at order 3.
    raised = kept = 0
    for n in range(3, 12, 2):
        want = _o_vector_direct(n)
        monkeypatch.setattr(offdiag.counts, "_even_nearly_pass",
                            offdiag.pfaffian._ToeplitzPass(2))
        even_order_full(n + 1)
        done = offdiag.counts._even_nearly_pass
        for s, step in enumerate(done.steps):
            for r in (1, 2):
                for c, entry in enumerate(step[r]):
                    shifts = {1, -1, 2, 3, 7, 100, entry, -2 * entry}
                    for delta in shifts - {0}:
                        bad = offdiag.pfaffian._ToeplitzPass(2)
                        bad.order, bad.pivot = done.order, done.pivot
                        bad.steps = tuple((p, list(top), list(second))
                                          for p, top, second in done.steps)
                        bad.steps[s][r][c] += delta
                        monkeypatch.setattr(offdiag.counts,
                                            "_even_nearly_pass", bad)
                        monkeypatch.setattr(offdiag.counts, "_kernels", {})
                        try:
                            got = o_vector(n)
                        except ArithmeticError:
                            raised += 1
                        else:
                            assert got == want, (n, delta, s, r, c)
                            kept += 1
    assert (raised, kept) == (990, 960)


def test_a_wrong_delannoy_entry_never_gives_a_wrong_deletion_vector(
        monkeypatch, empty_ladders):
    # o_vector's P^(-T) solve reads P off paths.delannoy; shift any one
    # entry it reads and the solved vector leaves the kernel of A(n), which
    # the check against rows 2..n refuses
    for n in (3, 5, 7, 9):
        assert o_vector(n) == O_VECTORS[n]
        for j in range(n - 1):
            for d in range(1, n - j):
                def shifted(p, q, key=(d, j)):
                    return delannoy(p, q) + ((p, q) == key)

                monkeypatch.setattr(offdiag.counts, "delannoy", shifted)
                monkeypatch.setattr(offdiag.counts, "_kernels", {})
                with pytest.raises(ArithmeticError, match="off the kernel"):
                    o_vector(n)
        monkeypatch.setattr(offdiag.counts, "delannoy", delannoy)
