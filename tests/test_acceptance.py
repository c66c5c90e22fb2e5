"""Acceptance suite: one test per stated criterion, each contributing a PASS
or FAIL line with its elapsed time to the terminal summary.  Criteria with a
stated runtime budget assert it."""

import time
from contextlib import contextmanager

import conftest

from offdiag.cli import main
from offdiag.counts import count_nearly, d_vector, o_vector
from offdiag.matrices import matrix_r, r_value, t_array
from offdiag.verify import (
    CHECKS,
    scan_asymptotics,
    scan_log_concavity,
    verify_rank_claim,
)

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


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s")
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - t0
        line = f"ACCEPTANCE {num:2d} {name}: {status} ({elapsed:.2f}s)"
        print(line)
        conftest.ACCEPTANCE_LINES.append(line)


def assert_checks_pass(n_max, *check_ids):
    """Run identity checks by id, as the battery declares them."""
    for check_id in check_ids:
        result = CHECKS["identities"][check_id](n_max)
        assert result.ok, result


def test_criterion_01_oracle_equivalence():
    with criterion(1, "oracle equivalence at small odd orders", budget=10.0):
        assert o_vector(3) == (2, 2, 2)
        assert o_vector(5) == (12, 36, 60, 36, 12)
        assert count_nearly(3) == 16
        assert count_nearly(5) == 312
        assert d_vector("pm", 5) == (24, 96, 72, 96, 24)
        assert_checks_pass(5, "oracle-agrees-small")


def test_criterion_02_total_tiling_counts():
    with criterion(2, "exhaustive totals are 2^(n(n+1)/2)", budget=30.0):
        assert_checks_pass(5, "tiling-count-power-of-two")


def test_criterion_03_table_fixtures():
    with criterion(3, "first-row and array tables reproduced"):
        for n, row in enumerate(FIRST_ROW_TABLE, start=1):
            assert tuple(r_value(n, 1, j) for j in range(1, n + 1)) == row
            signed = matrix_r(n)[0]
            assert tuple(abs(v) for v in signed) == row
        assert t_array(7, 7) == T_TABLE


def test_criterion_04_deletion_vector_symmetry():
    with criterion(4, "deletion vectors palindromic through order 61",
                   budget=60.0):
        assert_checks_pass(61, "deletion-vector-palindrome")


def test_criterion_05_r_matrix_properties():
    with criterion(5, "reversal matrix structure through n = 12"):
        assert_checks_pass(12, "r-matrix-structure",
                           "r-matrix-reverses-deletion-vector")


def test_criterion_06_kernel_lemmas():
    with criterion(6, "kernel identities on graphs through n = 8"):
        assert_checks_pass(8, "kernel-translation-invariance",
                           "wall-shift-boundary-term",
                           "window-three-term-recurrence",
                           "corner-kernel-halves-pair",
                           "r-matrix-first-row-closed-forms")


def test_criterion_07_embedding_gate():
    with criterion(7, "path kernel embeds the count matrices, n = 8"):
        assert_checks_pass(8, "doublet-kernel-matches-recurrence",
                           "path-counts-match-delannoy")


def test_criterion_08_series_suite():
    with criterion(8, "generating function suite"):
        assert_checks_pass(12, "diagonal-closed-form",
                           "t-array-alternating-convolution",
                           "schroeder-generating-function")


def test_criterion_09_rank_claim():
    with criterion(9, "reversal-difference rank through order 21"):
        report = verify_rank_claim(21)
        assert report.passed, report.failures()


def test_criterion_10_ratio_and_alternating_identities():
    with criterion(10, "ratio identities through 41"):
        assert_checks_pass(41, "second-entry-ratios")


def test_criterion_11_conjecture_scans():
    with criterion(11, "conjecture scans through m = 35", budget=300.0):
        lc_report, lc_rows = scan_log_concavity(35)
        assert lc_report.passed, lc_report.failures()
        assert len(lc_rows) == 35
        assert all(row["log_concave"] for row in lc_rows)
        asym_report, asym_rows = scan_asymptotics(35)
        assert asym_report.passed, asym_report.failures()
        assert asym_rows[34]["even_gap"] < asym_rows[4]["even_gap"]
        assert asym_rows[34]["nearly_gap"] < asym_rows[4]["nearly_gap"]


def test_criterion_12_family_enumeration():
    with criterion(12, "path families match the signed matrix counts"):
        assert_checks_pass(4, "family-enumeration-matches-pfaffians")
        assert_checks_pass(3, "nearly-families-split-by-endpoint")


def test_cli_entry_points():
    # the documented command fixtures, end to end
    with criterion(0, "command line fixtures"):
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["count", "o", "--n", "5", "--k", "3"]) == 0
            assert main(["count", "o", "--n", "3", "--all"]) == 0
        assert out.getvalue() == "60\n2,2,2\n"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            assert main(["oracle", "--n", "11"]) == 2