import json
import math
import random

import pytest

import offdiag.counts
import offdiag.oracle
import offdiag.series
import offdiag.verify
from offdiag.counts import count_nearly, even_order_full
from offdiag.matrices import MAX_ORDER, _check_order, matrix_r
from offdiag.paths import FULL, REDUCED, PathGraph
from offdiag.pfaffian import SkewMatrix, pfaffian_cofactor, rational_rank
from offdiag.verify import (
    CHECKS,
    MAX_N_MAX,
    CheckReport,
    CheckResult,
    _adjusted_left_block,
    _odd_cap,
    _power_exceeds,
    _root_offset,
    jsonable,
    scan_asymptotics,
    scan_log_concavity,
    verify_identities,
    verify_rank_claim,
)


def test_identity_battery_passes():
    report = verify_identities(8)
    assert report.suite == "identities"
    assert report.passed
    assert report.failures() == ()
    assert len(report.results) == 24
    ids = [r.check for r in report.results]
    assert len(set(ids)) == len(ids)
    for r in report.results:
        assert r.status == "PASS"
        assert r.range


def test_identity_battery_builds_each_graph_once(monkeypatch, empty_memos):
    built = []
    init = PathGraph.__init__

    def spy(self, n, variant=FULL):
        built.append((n, variant))
        init(self, n, variant)

    monkeypatch.setattr(PathGraph, "__init__", spy)
    assert verify_identities(12).passed
    assert {variant for _, variant in built} == {FULL, REDUCED}
    assert len(built) == len(set(built))


def test_identity_battery_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify_identities(0)


def test_suites_refuse_bounds_with_empty_ranges():
    for n_max in (1, 2, 3):
        with pytest.raises(ValueError, match="^n_max must be at least 4 for "
                                             "the identities suite$"):
            verify_identities(n_max)
    with pytest.raises(ValueError, match="^n_max must be at least 3 for the "
                                         "rank-claim suite$"):
        verify_rank_claim(2)
    # the check that sets the identity bound covers n = 4 at it
    assert "4 <= n <= 4" in CHECKS["identities"][
        "window-three-term-recurrence"](4).range


def test_suites_refuse_bounds_past_the_order_bound(monkeypatch):
    # n_max = 200 needs o_vector(199) and d_vector("pm", 199), each checked
    # as an order-200 request; 201 would need o_vector(201), which is
    # refused, so both suites refuse it up front
    assert MAX_N_MAX == MAX_ORDER == 200
    _check_order(_odd_cap(MAX_N_MAX) + 1)
    with pytest.raises(ValueError):
        _check_order(_odd_cap(MAX_N_MAX + 1))

    def refuse(n_max):
        raise AssertionError("a check ran before the bound was checked")

    for suite in ("identities", "rank-claim"):
        monkeypatch.setitem(CHECKS, suite, {"any": refuse})
    for run in (verify_identities, verify_rank_claim):
        with pytest.raises(ValueError, match="^n_max must be at most 200, "
                                             "since the largest supported "
                                             "order is 200$"):
            run(MAX_N_MAX + 1)


def test_float_bounds_are_refused_before_any_check(monkeypatch,
                                                   empty_ladders, forbid_a):
    def refuse(*args):
        raise AssertionError("ran work for a float bound")

    for suite in ("identities", "rank-claim"):
        monkeypatch.setitem(CHECKS, suite, {"any": refuse})
    forbid_a()
    for run, n_max in ((verify_identities, 5.0), (verify_rank_claim, 5.0),
                       (scan_log_concavity, 2.0), (scan_asymptotics, 2.0)):
        with pytest.raises(TypeError):
            run(n_max)


def test_rank_claim_passes():
    report = verify_rank_claim(13)
    assert report.suite == "rank-claim"
    assert report.passed
    with pytest.raises(ValueError):
        verify_rank_claim(2)


def test_reversal_difference_fixture():
    rows = matrix_r(5)
    x = [[rows[i][4 - j] - rows[i][j] for j in range(5)] for i in range(5)]
    assert x == [
        [17, -24, 0, 24, -17],
        [30, -17, 0, 17, -30],
        [18, -6, 0, 6, -18],
        [6, -1, 0, 1, -6],
        [1, 0, 0, 0, -1],
    ]
    block = [row[:2] for row in x]
    block[0][0] -= 1
    block[1][1] -= 1
    block[3][1] += 1
    block[4][0] += 1
    assert block == [[16, -24], [30, -18], [18, -6], [6, 0], [2, 0]]
    assert _adjusted_left_block(5) == block
    assert rational_rank(block) == 2


def test_rank_claim_reads_no_count(empty_ladders, forbid_a):
    # the rank suite reads R alone: with the ladder empty and A forbidden,
    # a count read would raise
    forbid_a()
    report = verify_rank_claim(21)
    assert report.passed
    assert [r.check for r in report.results] == ["reversal-difference-rank"]


def test_log_concavity_scan():
    report, rows = scan_log_concavity(6)
    assert report.passed
    assert [row["order"] for row in rows] == [1, 3, 5, 7, 9, 11]
    assert all(row["log_concave"] for row in rows)
    assert [row["order"] for row in rows
            if not row["pm_unimodal"]] == [5, 7, 9, 11]
    (gate,) = report.results
    assert gate.check == "deletion-vector-log-concavity"
    with pytest.raises(ValueError):
        scan_log_concavity(0)


def test_asymptotics_scan():
    report, rows = scan_asymptotics(7)
    assert report.passed
    assert len(report.results) == 2  # gap comparison kicks in past m=5
    assert len(rows) == 7
    first, ref, last = rows[0], rows[4], rows[-1]
    assert first["even_count"] == "2"
    assert first["even_gap"] < 1e-12  # exact base case, float noise only
    assert isinstance(last["nearly_count"], str)
    assert isinstance(last["even_root"], float)
    assert last["even_gap"] < ref["even_gap"]
    assert last["nearly_gap"] < ref["nearly_gap"]


def test_scans_run_one_condensation_pass(monkeypatch, empty_ladders):
    extensions = []
    x_row = offdiag.counts._x_row

    def counted(n):
        extensions.append(n)
        return x_row(n)

    # each scan asks for its largest order first, so an oversized scan is
    # refused before any extension, and the ladder is extended once, to
    # the scan's top rung and no further, and every other order is a rung
    # read; both scans read the one ladder, so the second extends the
    # first's rungs; each extension reads X's first row once
    monkeypatch.setattr(offdiag.counts, "_x_row", counted)
    for scan in (scan_asymptotics, scan_log_concavity):
        with pytest.raises(ValueError, match="largest supported order"):
            scan(101)
    assert extensions == []
    assert scan_log_concavity(25)[0].passed
    assert extensions == [49] and len(offdiag.counts._rungs) == 25
    extensions.clear()
    assert scan_asymptotics(50)[0].passed
    assert extensions == [101] and len(offdiag.counts._rungs) == 51


def test_scans_raise_on_a_zero_leading_pivot(monkeypatch, empty_ladders):
    # a skew Toeplitz X with c_2 = 0, so that b = c_2, the divisor that
    # fixes rung 2, is 0, though Pf X(4) = c1^2 - c2^2 + c1 c3 is not: the
    # recurrence holds for the package's X, and on any other the scans
    # must stop rather than misread orders, and leave the ladder and the
    # vector memo as they were
    def zero_b(n):
        return [0, 1, 0] + [1] * (n - 3)

    row = zero_b(4)
    x4 = [[row[j - i] if i <= j else -row[i - j] for j in range(4)]
          for i in range(4)]
    assert pfaffian_cofactor(SkewMatrix(x4)) == 2
    monkeypatch.setattr(offdiag.counts, "_x_row", zero_b)
    for scan in (scan_asymptotics, scan_log_concavity):
        with pytest.raises(ArithmeticError, match="zero pivot"):
            scan(3)
        assert offdiag.counts._rungs == [(1,)]
        assert offdiag.counts._kernels == {}


def test_gap_check_is_exact_across_the_sqrt2_crossing():
    # the nearly root is above sqrt(2) at m = 16 and below it at m = 17:
    # count^(2/N^2) > sqrt(2) exactly when count^4 > 2^(N^2)
    for m, above in ((16, True), (17, False)):
        order = 2 * m - 1
        count = count_nearly(order)
        assert (count ** 4 > 2 ** (order * order)) is above
        offset = _root_offset(count, order)
        assert offset >= 1 if above else offset <= -1
    for n_max in (16, 17):
        report, _ = scan_asymptotics(n_max)
        gap = report.results[1]
        assert (gap.check, gap.range, gap.status) == (
            "gap-shrinks-past-calibration", f"m = {n_max} against m = 5",
            "PASS")


def test_bounded_powers_decide_exactly():
    # the k-bit brackets on y**e decide y**e > target as the exact power
    # does; a target at y**e or one off it is never decided by rounded
    # bounds, so k grows until nothing is rounded
    rng = random.Random(41)
    cases = 0
    for _ in range(400):
        y = rng.randint(1, 1 << rng.randint(1, 24))
        e = rng.choice((0, 1, 2, rng.randint(3, 60), rng.randint(60, 900)))
        power = y ** e
        for target in (power - 1, power, power + 1,
                       power + rng.randint(-9, 9), rng.randint(0, 2 * power),
                       power >> rng.randint(0, 70)):
            if target >= 0:
                assert _power_exceeds(y, e, target) is (power > target), (
                    y, e, target)
                cases += 1
    assert cases > 2000
    assert _power_exceeds(1, 10**6, 0) and not _power_exceeds(1, 10**6, 1)


def test_root_offsets_match_exact_powers():
    # _root_offset brackets each root as the exact integer root would, at
    # every order <= 60, even and nearly
    def exact(count, order):
        bits = offdiag.verify._ROOT_BITS
        e = order * order
        target = count * count << (bits * e)
        root = int(math.ldexp(math.exp(2 * math.log(count) / e), bits))
        while root ** e > target:
            root -= 1
        while (root + 1) ** e <= target:
            root += 1
        return root - math.isqrt(2 << (2 * bits))

    for m in range(1, 31):
        for count, order in ((even_order_full(2 * m), 2 * m),
                             (count_nearly(2 * m - 1), 2 * m - 1)):
            assert _root_offset(count, order) == exact(count, order), order


def test_gap_check_fails_when_the_brackets_overlap(monkeypatch):
    monkeypatch.setattr(offdiag.verify, "_ROOT_BITS", 1)
    report, rows = scan_asymptotics(7)
    assert not report.passed
    gap = report.results[1]
    assert gap.status == "FAIL"
    assert gap.witness == {
        "failures": 2,
        "first": {"even_gap_last": rows[-1]["even_gap"],
                  "even_gap_ref": rows[4]["even_gap"],
                  "verdict": "undecided at 1 bits"}}
    json.dumps(rows)  # floats and strings only, no big ints
    short_report, _ = scan_asymptotics(3)
    assert len(short_report.results) == 1
    with pytest.raises(ValueError):
        scan_asymptotics(0)


def test_report_serialization():
    report = verify_rank_claim(5)
    payload = report.to_jsonable()
    assert payload["suite"] == "rank-claim"
    assert payload["passed"] is True
    for item in payload["checks"]:
        assert set(item) == {"check", "range", "status", "witness"}
    json.dumps(payload)


def test_failure_reporting_shape():
    bad = CheckResult(check="demo", range="nowhere", status="FAIL",
                      witness={"first": {"n": 1}})
    report = CheckReport(suite="demo", results=(bad,))
    assert not report.passed
    assert report.failures() == (bad,)
    assert report.to_jsonable()["checks"][0]["status"] == "FAIL"


def test_corrupted_matrix_entry_yields_fail_with_witness(monkeypatch):
    # Self-test of the harness: plant one wrong entry in the recurrence
    # matrix and make sure the comparison against path-kernel values
    # reports it instead of passing silently.
    from types import SimpleNamespace

    from offdiag import verify as verify_mod
    from offdiag.matrices import matrix_a

    def corrupted(n):
        rows = [list(row) for row in matrix_a(n).rows]
        if n == 3:
            rows[0][1] += 1
        return SimpleNamespace(rows=tuple(tuple(row) for row in rows))

    monkeypatch.setattr(verify_mod, "matrix_a", corrupted)
    result = CHECKS["identities"]["doublet-kernel-matches-recurrence"](3)
    assert result.status == "FAIL"
    assert not result.ok
    assert result.witness["failures"] == 1
    first = result.witness["first"]
    assert (first["n"], first["i"], first["j"]) == (3, 1, 2)
    assert first["kernel"] != first["matrix"]
    report = CheckReport(suite="identities", results=(result,))
    assert not report.passed
    json.dumps(report.to_jsonable())


def test_r_structure_check_reads_the_kernel_not_matrix_r(monkeypatch):
    # matrix_r is built from the structure r-matrix-structure checks, so
    # the check reads that structure off the path kernel and compares
    # matrix_r with the signed kernel: one wrong entry of matrix_r fails it
    from offdiag import verify as verify_mod

    def corrupted(n):
        rows = [list(row) for row in matrix_r(n)]
        if n == 4:
            rows[3][0] = 1           # below the diagonal
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(verify_mod, "matrix_r", corrupted)
    result = CHECKS["identities"]["r-matrix-structure"](12)
    assert result.status == "FAIL"
    assert result.witness["failures"] == 1
    assert result.witness["first"] == {"n": 4, "i": 4, "j": 1, "kernel": 0,
                                       "structure": 0, "matrix": 1}


def test_a_wrong_t_array_entry_fails_structure_and_convolution(monkeypatch):
    # one wrong entry in row 5 of t_array, read by matrix_r and by the
    # convolution check alike: r-matrix-structure sees matrix_r(5) differ
    # from the signed kernel, and t-array-alternating-convolution sees
    # T(z) T(-z) != 1, the statement matrix_r's involution rests on
    import offdiag.matrices

    t_array = offdiag.matrices.t_array

    def corrupted(nrows, ncols):
        arr = [list(row) for row in t_array(nrows, ncols)]
        if nrows >= 5 and ncols >= 3:
            arr[4][2] += 1
        return tuple(tuple(row) for row in arr)

    for module in (offdiag.matrices, offdiag.verify):
        monkeypatch.setattr(module, "t_array", corrupted)
    structure = CHECKS["identities"]["r-matrix-structure"](12)
    assert structure.status == "FAIL"
    assert structure.witness == {
        "failures": 3,
        "first": {"n": 5, "i": 1, "j": 3, "kernel": 18, "structure": 18,
                  "matrix": 19}}
    convolution = CHECKS["identities"]["t-array-alternating-convolution"](12)
    assert convolution.status == "FAIL"
    assert convolution.witness["first"] == {"n": 5, "j": 3, "sum": 2}


def test_a_wrong_linear_kernel_value_fails_the_closed_forms(monkeypatch):
    # r_value(n, 1, 2), the wall kernel's linear value, is 2n - 4
    r_value = offdiag.verify.r_value

    def corrupted(n, i, j):
        return r_value(n, i, j) + ((n, i, j) == (7, 1, 2))

    monkeypatch.setattr(offdiag.verify, "r_value", corrupted)
    result = CHECKS["identities"]["r-matrix-first-row-closed-forms"](12)
    assert result.status == "FAIL"
    assert result.witness == {"failures": 1,
                              "first": {"n": 7, "j": 2, "got": 11}}


def test_identity_battery_walks_the_order_5_tilings_once(monkeypatch):
    walks = []
    count_all_tilings = offdiag.oracle.count_all_tilings

    def counted(region):
        if region.n == 5 and region.kept == frozenset(range(1, 6)):
            walks.append(region)
        return count_all_tilings(region)

    for module in (offdiag.oracle, offdiag.verify):
        monkeypatch.setattr(module, "count_all_tilings", counted)
    assert verify_identities(12).passed
    assert len(walks) == 1


def test_oracle_check_compares_every_defect_variant(monkeypatch):
    from offdiag import verify as verify_mod
    from offdiag.oracle import oracle_counts

    check = CHECKS["identities"]["oracle-agrees-small"]
    for field in ("d_pm", "d_plus", "d_minus"):
        def corrupted(n, field=field):
            counts = oracle_counts(n)
            vec = getattr(counts, field)
            return counts._replace(**{field: (vec[0] + 1,) + vec[1:]})

        monkeypatch.setattr(verify_mod, "oracle_counts", corrupted)
        result = check(1)
        assert not result.ok
        assert result.witness["first"]["field"] == field


def test_a_non_palindromic_deletion_vector_fails_the_palindrome(monkeypatch):
    # deletion-vector-palindrome is the one line that reads J o = o
    o_vector = offdiag.verify.o_vector

    def corrupted(n):
        o = o_vector(n)
        return (o[0] + 1,) + o[1:] if n == 7 else o

    monkeypatch.setattr(offdiag.verify, "o_vector", corrupted)
    result = CHECKS["identities"]["deletion-vector-palindrome"](12)
    assert result.status == "FAIL"
    assert result.witness["failures"] == 1
    assert result.witness["first"]["n"] == 7


def test_a_wrong_plus_vector_fails_the_oracle_check(monkeypatch):
    # the plus variant is compared with the oracle, not against the other
    # matrix route, whose plus weights are pm - minus
    d_vector = offdiag.verify.d_vector

    def corrupted(variant, n):
        vec = d_vector(variant, n)
        return (vec[0] + 1,) + vec[1:] if variant == "plus" else vec

    monkeypatch.setattr(offdiag.verify, "d_vector", corrupted)
    result = CHECKS["identities"]["oracle-agrees-small"](5)
    assert result.status == "FAIL"
    assert {"n": 1, "field": "d_plus"}.items() <= result.witness[
        "first"].items()


def test_jsonable_conversions():
    from fractions import Fraction

    big = 2 ** 70
    out = jsonable({"a": big, "b": 7, "c": [big, 1.5, "x"],
                    "d": Fraction(1, 3), "e": None, "f": True})
    assert out["a"] == str(big)
    assert out["b"] == 7
    assert out["c"] == [str(big), 1.5, "x"]
    assert out["d"] == "1/3"
    assert out["e"] is None
    assert out["f"] is True
    json.dumps(out)


# --- the checks that read shared tables or one batched pass can still fail --

def corrupt_path_count(monkeypatch, src, dst):
    """Make every graph count one path too many from src onto dst."""
    path_counts = PathGraph.path_counts

    def corrupted(self, p):
        counts = path_counts(self, p)
        return {**counts, dst: counts.get(dst, 0) + 1} if p == src else counts

    monkeypatch.setattr(PathGraph, "path_counts", corrupted)


def drop_first_path(monkeypatch, src):
    """Make every graph's list of the paths out of src lose its first
    path."""
    path_list = PathGraph._path_list

    def corrupted(self, a, b):
        paths = path_list(self, a, b)
        return paths[1:] if a == src else paths

    monkeypatch.setattr(PathGraph, "_path_list", corrupted)


def corrupt_last_rung(monkeypatch):
    """Make every condensation pass of several border columns read its
    second column's last entry one too high."""
    leading_rungs = offdiag.counts._leading_rungs

    def corrupted(rows, *columns):
        rungs = leading_rungs(rows, *columns)
        if len(columns) > 1:
            pivot, first, second, *rest = rungs[-1]
            rungs[-1] = (pivot, first, second + 1, *rest)
        return rungs

    monkeypatch.setattr(offdiag.counts, "_leading_rungs", corrupted)


def drop_start_mask(monkeypatch):
    """Make every region enter the oracle's table as the full diamond."""
    monkeypatch.setattr(offdiag.oracle, "_start_mask", lambda region: 0)


def share_a_point(monkeypatch):
    """Make the last path of every decomposition at n >= 2 end on the
    first path's end as well."""
    tiling_to_paths = offdiag.verify.tiling_to_paths

    def corrupted(region, tiling):
        paths = tiling_to_paths(region, tiling)
        if len(paths) > 1:
            first, last = min(paths), max(paths)
            paths[last] += (paths[first][-1],)
        return paths

    monkeypatch.setattr(offdiag.verify, "tiling_to_paths", corrupted)


def drop_a_path(monkeypatch):
    """Make every decomposition at n >= 2 lose its last label's path."""
    tiling_to_paths = offdiag.verify.tiling_to_paths

    def corrupted(region, tiling):
        paths = tiling_to_paths(region, tiling)
        if len(paths) > 1:
            del paths[max(paths)]
        return paths

    monkeypatch.setattr(offdiag.verify, "tiling_to_paths", corrupted)


def shift_last_entry(monkeypatch, module, name):
    """Make every tuple that module.name returns end one too high."""
    route = getattr(module, name)

    def corrupted(*args):
        *head, last = route(*args)
        return (*head, last + 1)

    monkeypatch.setattr(module, name, corrupted)


def shift_r_corner(monkeypatch):
    """Make every matrix_r that verify reads have its top right entry one
    too high."""
    route = offdiag.verify.matrix_r

    def corrupted(n):
        first, *rest = route(n)
        return ((*first[:-1], first[-1] + 1), *rest)

    monkeypatch.setattr(offdiag.verify, "matrix_r", corrupted)


def shift_t_diagonal(monkeypatch):
    """Make every t_array that verify reads have entry (3, 3) one too
    high."""
    route = offdiag.verify.t_array

    def corrupted(nrows, ncols):
        rows = [list(row) for row in route(nrows, ncols)]
        rows[2][2] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(offdiag.verify, "t_array", corrupted)


def shift_kernel_memo(monkeypatch):
    """Make the kept kernel vector of A(5), which o_vector(5) reads, have
    its first entry one too high."""
    x = offdiag.counts._kernel(5)
    monkeypatch.setitem(offdiag.counts._kernels, 5, (x[0] + 1, *x[1:]))


def drop_a_placement(monkeypatch):
    """Make every placement table of the oracle lose the upward domino on
    its first square."""
    placement_table = offdiag.oracle._placement_table

    def corrupted(n, images):
        table = placement_table(n, images)
        return [table[0][:1], *table[1:]]

    monkeypatch.setattr(offdiag.oracle, "_placement_table", corrupted)


def drop_a_column_from_ranks(monkeypatch):
    """Make every rank that verify takes miss the matrix's last column."""
    monkeypatch.setattr(offdiag.verify, "rational_rank",
                        lambda rows: rational_rank([r[:-1] for r in rows]))


# One perturbation of one route, keyed by (suite, check id), for every
# check: it reads the point tables, the oracle's one table per order, one
# condensation pass with several border columns, a shifted memo entry, or
# one function of the package that verify reads.
REROUTED = {
    ("identities", "defect-entry-routes-agree"): corrupt_last_rung,
    ("identities", "deletion-vector-bordered-route"): corrupt_last_rung,
    # x_2 = (-2, 0) onto the upper point of its own doublet, (-2, 1)
    ("identities", "kernel-translation-invariance"):
        lambda mp: corrupt_path_count(mp, (-2, 0), (-2, 1)),
    # u_2 = (-2, -1) onto the lower point of doublet 2, (-2, 0)
    ("identities", "r-matrix-structure"):
        lambda mp: corrupt_path_count(mp, (-2, -1), (-2, 0)),
    ("identities", "oracle-agrees-small"): drop_start_mask,
    ("identities", "tiling-path-round-trip"): share_a_point,
    ("identities", "diagonal-doublet-law"): drop_a_path,
    # u_2 = (-2, -1) onto the upper point of doublet 2, (-2, 1)
    ("identities", "doublet-kernel-matches-recurrence"):
        lambda mp: corrupt_path_count(mp, (-2, -1), (-2, 1)),
    # x_3 = (-3, 0) onto v_3 = (-2, 0)
    ("identities", "path-counts-match-delannoy"):
        lambda mp: corrupt_path_count(mp, (-3, 0), (-2, 0)),
    # x_2 = (-2, 0) onto the upper point of its own doublet, (-2, 1)
    ("identities", "wall-shift-boundary-term"):
        lambda mp: corrupt_path_count(mp, (-2, 0), (-2, 1)),
    # x_3 = (-3, 0) onto the upper point of its own doublet, (-3, 2)
    ("identities", "window-three-term-recurrence"):
        lambda mp: corrupt_path_count(mp, (-3, 0), (-3, 2)),
    # u_2 = (-2, -1) onto the lower point of doublet 2, (-2, 0)
    ("identities", "corner-kernel-halves-pair"):
        lambda mp: corrupt_path_count(mp, (-2, -1), (-2, 0)),
    # u_3 = (-3, -1) onto the lower point of doublet 3, (-3, 1)
    ("identities", "r-matrix-first-row-closed-forms"):
        lambda mp: corrupt_path_count(mp, (-3, -1), (-3, 1)),
    ("identities", "family-enumeration-matches-pfaffians"):
        lambda mp: drop_first_path(mp, (-2, -1)),
    ("identities", "nearly-families-split-by-endpoint"):
        lambda mp: drop_first_path(mp, (-2, -1)),
    ("identities", "schroeder-generating-function"):
        lambda mp: shift_last_entry(mp, offdiag.series, "schroeder_numbers"),
    ("identities", "r-matrix-reverses-deletion-vector"): shift_r_corner,
    ("identities", "t-array-row-generating-function"): shift_t_diagonal,
    ("identities", "t-array-alternating-convolution"): shift_t_diagonal,
    ("identities", "diagonal-closed-form"): shift_t_diagonal,
    ("identities", "pell-equals-doubled-delannoy-sums"):
        lambda mp: shift_last_entry(mp, offdiag.verify, "pell_vector"),
    ("identities", "deletion-vector-palindrome"): shift_kernel_memo,
    ("identities", "second-entry-ratios"): shift_kernel_memo,
    ("identities", "tiling-count-power-of-two"): drop_a_placement,
    ("rank-claim", "reversal-difference-rank"): drop_a_column_from_ranks,
}


def test_every_check_has_a_rerouted_case():
    # a check registered without a failing case fails the suite
    assert set(REROUTED) == {(suite, check_id)
                             for suite, checks in CHECKS.items()
                             for check_id in checks}


@pytest.mark.parametrize("suite, check_id", REROUTED)
def test_rerouted_checks_pass_and_fail_on_a_perturbed_route(
        monkeypatch, empty_memos, suite, check_id):
    # with the point tables empty, so no table filled before the
    # perturbation hides it, a perturbed route fails its check with a
    # witness, and the unperturbed route passes
    check = CHECKS[suite][check_id]
    assert check(12).ok
    empty_memos()
    REROUTED[suite, check_id](monkeypatch)
    result = check(12)
    assert result.status == "FAIL"
    assert result.witness["failures"] >= 1 and result.witness["first"]
