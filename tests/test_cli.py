import hashlib
import json
import os
import subprocess
import sys
import time
from operator import mul
from pathlib import Path

import pytest

from offdiag.cli import main

# A golden file is regenerated from a checkout with
#   PYTHONPATH=src python -m offdiag.cli <argv of its assert_golden call> \
#       > tests/golden/<name>
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(capsys, name, *argv):
    # read as bytes: the csv fixtures keep the writer's \r\n line ends
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_bytes().decode()


def test_count_and_oracle_match_golden_output(capsys):
    for target, name in ((("dpm", "--n", "7", "--all"), "count_dpm_n7_all"),
                         (("d", "--n", "7"), "count_d_n7")):
        assert_golden(capsys, f"{name}.txt", "count", *target)
        for fmt in ("json", "csv"):
            assert_golden(capsys, f"{name}.{fmt}", "count", *target,
                          "--format", fmt)
    assert_golden(capsys, "count_o_n5_kept.json", "count", "o", "--n", "5",
                  "--kept", "1,2,3,4", "--format", "json")
    for n in ("3", "5"):
        assert_golden(capsys, f"oracle_n{n}_compare.txt", "oracle", "--n", n,
                      "--compare")
        assert_golden(capsys, f"oracle_n{n}_compare.json", "oracle", "--n", n,
                      "--compare", "--format", "json")


def test_count_single_entry(capsys):
    code, out, _ = run(capsys, "count", "o", "--n", "5", "--k", "3")
    assert code == 0
    assert out == "60\n"


def test_count_whole_vector(capsys):
    code, out, _ = run(capsys, "count", "o", "--n", "3", "--all")
    assert code == 0
    assert out == "2,2,2\n"


def test_count_kept_subset(capsys):
    code, out, _ = run(capsys, "count", "o", "--n", "5", "--kept", "1,2,3,4")
    assert code == 0
    assert out == "12\n"
    code, out, _ = run(capsys, "count", "o", "--n", "3", "--kept", "")
    assert code == 0
    assert out == "1\n"


def test_count_other_targets(capsys):
    assert run(capsys, "count", "d", "--n", "5")[1] == "312\n"
    assert run(capsys, "count", "even", "--n", "6")[1] == "312\n"
    assert run(capsys, "count", "dpm", "--n", "5", "--all")[1] == "24,96,72,96,24\n"
    assert run(capsys, "count", "dminus", "--n", "5", "--k", "2")[1] == "24\n"
    assert run(capsys, "count", "dplus", "--n", "5", "--k", "1")[1] == "24\n"


def test_count_json_format(capsys):
    code, out, _ = run(capsys, "count", "o", "--n", "5", "--k", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"target": "o", "n": 5, "k": 3, "value": "60"}
    code, out, _ = run(capsys, "count", "o", "--n", "3", "--all",
                       "--format", "json")
    assert json.loads(out)["values"] == ["2", "2", "2"]


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "o", "--n", "5")
    assert code == 2
    assert "needs one of" in err
    code, _, err = run(capsys, "count", "o", "--n", "4", "--all")
    assert code == 2
    assert "odd" in err
    code, _, err = run(capsys, "count", "dpm", "--n", "5", "--k", "9")
    assert code == 2
    assert err == "error: cell index must be within 1..5\n"
    # target o refuses the order before the label, as the d* targets do
    code, out, err = run(capsys, "count", "o", "--n", "4", "--k", "9")
    assert (code, out) == (2, "")
    assert err == "error: deletion vector is defined for odd n >= 1\n"
    code, out, err = run(capsys, "count", "o", "--n", "201", "--k", "300")
    assert (code, out) == (2, "")
    assert err == ("error: this request needs a condensation of order 202; "
                   "the largest supported order is 200\n")
    code, _, err = run(capsys, "count", "even", "--n", "5")
    assert code == 2
    # repeated kept labels are refused before computing, not deduplicated,
    # and outside ones alike, by the one library check `count` and `render`
    # share
    code, out, err = run(capsys, "count", "o", "--n", "3", "--kept", "1,1",
                         "--format", "json")
    assert (code, out) == (2, "")
    assert err == "error: kept labels repeat: [1, 1]\n"
    for kept, message in (("0", "labels must be within 1..3"),
                          ("4", "labels must be within 1..3"),
                          ("1,1", "kept labels repeat: [1, 1]")):
        err = f"error: {message}\n"
        for command in ("render", "count o"):
            argv = (*command.split(), "--n", "3", "--kept", kept)
            assert run(capsys, *argv) == (2, "", err), argv
    # a label that is not an integer gets one clear line
    code, out, err = run(capsys, "count", "o", "--n", "5", "--kept", "a")
    assert (code, out) == (2, "")
    assert err == ("error: --kept takes comma-separated integer labels, "
                   "not 'a'\n")
    # an empty kept set is a valid request: the empty matching, count 1
    code, out, _ = run(capsys, "count", "o", "--n", "3", "--kept", "")
    assert (code, out) == (0, "1\n")


def test_count_refuses_ignored_flags(capsys):
    cases = {
        ("d", "--n", "5", "--k", "9"): "takes none of",
        ("even", "--n", "4", "--all"): "takes none of",
        ("o", "--n", "5", "--k", "3", "--all"): "--k and --all cannot",
        ("o", "--n", "5", "--all", "--kept", "1,2"): "--all and --kept",
        ("dpm", "--n", "5", "--kept", "1", "--all"): "--all and --kept",
        ("dpm", "--n", "5", "--kept", "1"): "target o only",
        ("dplus", "--n", "5"): "needs --k or --all",
    }
    for argv, message in cases.items():
        code, out, err = run(capsys, "count", *argv)
        assert code == 2, argv
        assert out == ""
        assert message in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_count_checks_k_before_computing(capsys, empty_ladders, forbid_a):
    # target o's label is checked by `counts._o_entry`, a d* target's cell by
    # `matrices._check_cell`; both before the ladder reads any of A
    forbid_a()
    for target, noun in (("o", "label"), ("dpm", "cell index")):
        for k in ("0", "10"):
            code, out, err = run(capsys, "count", target, "--n", "9", "--k", k)
            assert (code, out) == (2, "")
            assert err == f"error: {noun} must be within 1..9\n"


def test_count_one_cell_reads_one_cells_weights(capsys, monkeypatch):
    # a "pm" cell is read off the ladder's checked rung, so it reads no
    # weights; a "minus" cell reads its own cell's weights only
    import offdiag.counts

    weights = offdiag.counts.defect_weights
    x = offdiag.counts._kernel(31)
    want = {variant: sum(map(mul, weights(variant, 31, 7), x))
            for variant in ("pm", "minus")}
    calls = []

    def counted(*args):
        calls.append(args)
        return weights(*args)

    monkeypatch.setattr(offdiag.counts, "defect_weights", counted)
    code, out, _ = run(capsys, "count", "dpm", "--n", "31", "--k", "7")
    assert (code, out) == (0, f"{want['pm']}\n")
    assert calls == []
    code, out, _ = run(capsys, "count", "dminus", "--n", "31", "--k", "7")
    assert (code, out) == (0, f"{want['minus']}\n")
    assert calls == [("minus", 31, 7)]


def test_verify_command(capsys):
    # witnesses are null on PASS, so the whole report is deterministic
    assert_golden(capsys, "verify_n5.txt", "verify", "--n-max", "5")
    assert_golden(capsys, "verify_n12.json", "verify", "--n-max", "12",
                  "--format", "json")
    payload = json.loads((GOLDEN / "verify_n12.json").read_text())
    assert payload["passed"] is True
    assert [s["suite"] for s in payload["suites"]] == ["identities",
                                                       "rank-claim"]


def test_count_csv_format(capsys):
    code, out, _ = run(capsys, "count", "o", "--n", "5", "--all",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert lines[3] == "5,3,60"
    assert len(lines) == 6

    code, out, _ = run(capsys, "count", "dminus", "--n", "5", "--k", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,k,value", "5,2,24"]

    code, out, _ = run(capsys, "count", "d", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "3,16"]

    code, out, _ = run(capsys, "count", "o", "--n", "5", "--kept", "1,2,3,4",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,kept,value", '5,"1,2,3,4",12']


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "rank", "--n-max", "9")
    assert code == 0
    assert "rank-claim: PASS" in out
    assert "identities:" not in out

    code, out, _ = run(capsys, "verify", "identities", "--n-max", "4")
    assert code == 0
    assert "identities: PASS" in out
    assert "rank-claim" not in out

    code, out, _ = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    assert "identities: PASS" in out
    assert "rank-claim: PASS" in out


def test_verify_rejects_nonpositive_n_max(capsys):
    for argv, suite in ((("--n-max", "0"), "4 for the identities"),
                        (("rank", "--n-max", "-1"), "3 for the rank-claim")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: n_max must be at least {suite} suite\n"


def _forbid_checks(monkeypatch):
    """Make every check of both suites fail the test if it runs."""
    import offdiag.verify

    def refuse(n_max):
        raise AssertionError("a check ran before --n-max was checked")

    for suite in ("identities", "rank-claim"):
        monkeypatch.setitem(offdiag.verify.CHECKS, suite, {"any": refuse})


def test_verify_refuses_rank_bound_below_3(capsys, monkeypatch):
    _forbid_checks(monkeypatch)
    for argv in (("rank", "--n-max", "1"), ("rank", "--n-max", "2")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert err == ("error: n_max must be at least 3 for the rank-claim "
                       "suite\n")


def test_verify_refuses_identity_bound_below_4(capsys, monkeypatch):
    # with both suites asked, the identity suite runs first and its bound is
    # the tighter, so it refuses before the rank suite is reached
    _forbid_checks(monkeypatch)
    for argv in (("identities", "--n-max", "3"), ("--n-max", "3"),
                 ("identities", "--n-max", "1"), ("--n-max", "2")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert err == ("error: n_max must be at least 4 for the identities "
                       "suite\n")


def test_verify_all_flag_is_gone(capsys):
    code, out, err = run(capsys, "verify", "--all", "--n-max", "4")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --all" in err


def test_internal_error_exits_3(capsys, monkeypatch):
    import offdiag.counts

    def broken(n):
        raise ArithmeticError("inexact division; input not skew?")

    monkeypatch.setattr(offdiag.counts, "_kernel", broken)
    code, out, err = run(capsys, "count", "o", "--n", "5", "--k", "3")
    assert code == 3
    assert out == ""
    assert err == ("internal error: ArithmeticError: inexact division; "
                   "input not skew?\n")


def test_a_failing_check_exits_1_with_its_witness(capsys, monkeypatch):
    # one identity check FAILs with a witness past 2^53; the others run
    import offdiag.verify

    check, big = "schroeder-generating-function", 2**64

    def failing(n_max):
        return offdiag.verify._check(check, "forced",
                                     [{"n": n_max, "value": big}, {"n": 0}])

    monkeypatch.setitem(offdiag.verify.CHECKS["identities"], check, failing)
    code, out, err = run(capsys, "verify", "identities", "--n-max", "4")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[:2] == [f"FAIL  {check}  [forced]",
                         f"      witness: {{'failures': 2, 'first': "
                         f"{{'n': 4, 'value': '{big}'}}}}"]
    assert all(line.startswith("PASS  ") for line in lines[2:-2])
    assert lines[-2:] == ["identities: FAIL", "overall: FAIL"]

    code, out, err = run(capsys, "verify", "--n-max", "4", "--format",
                         "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["passed"] is False
    identities, rank = payload["suites"]
    assert (identities["passed"], rank["passed"]) == (False, True)
    assert identities["checks"][0] == {
        "check": check, "range": "forced", "status": "FAIL",
        "witness": {"failures": 2, "first": {"n": 4, "value": str(big)}}}


def test_a_failing_scan_exits_1(capsys, monkeypatch):
    import offdiag.verify

    # every deletion vector (1, 1, 5, 1, ...) breaks log-concavity at k = 2
    monkeypatch.setattr(offdiag.verify, "o_vector",
                        lambda n: tuple(5 if k == 2 else 1 for k in range(n)))
    code, out, err = run(capsys, "scan", "logconcavity", "--n-max", "3")
    assert (code, err) == (1, "")
    assert out.splitlines()[-3:] == [
        "FAIL  deletion-vector-log-concavity  [odd orders <= 5, exact "
        "cross-multiplication]",
        "      witness: {'failures': 2, 'first': {'order': 3, 'k': 2, "
        "'triple': [1, 1, 5]}}",
        "log-concavity: FAIL"]

    # an offset that grows with the order: every gap has widened since m = 5
    monkeypatch.setattr(offdiag.verify, "_root_offset",
                        lambda count, order: order)
    code, out, err = run(capsys, "scan", "asymptotics", "--n-max", "6",
                         "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)["report"]
    assert report["passed"] is False
    gap = report["checks"][1]
    assert (gap["check"], gap["status"]) == ("gap-shrinks-past-calibration",
                                             "FAIL")
    assert gap["witness"]["failures"] == 2
    assert set(gap["witness"]["first"]) == {"even_gap_last", "even_gap_ref"}


def test_oracle_disagreement_exits_1(capsys, monkeypatch):
    import offdiag.verify

    routes = offdiag.verify._ORACLE_ROUTES
    assert routes[0][0] == "o"
    monkeypatch.setattr(offdiag.verify, "_ORACLE_ROUTES",
                        (("o", lambda n: (2, 3, 2)),) + routes[1:])
    code, out, err = run(capsys, "oracle", "--n", "3", "--compare")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-6].split() == ["matrix", "deletion", "counts", "2,3,2"]
    assert lines[-1].split() == ["agreement", "NO"]
    code, out, err = run(capsys, "oracle", "--n", "3", "--compare",
                         "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["agree"] is False
    assert (payload["o"], payload["matrix"]["o"]) == (["2", "2", "2"],
                                                      ["2", "3", "2"])


def test_scan_rejects_nonpositive_n_max(capsys):
    for kind in ("logconcavity", "asymptotics"):
        code, out, err = run(capsys, "scan", kind, "--n-max", "0")
        assert (code, out) == (2, "")
        assert err == "error: n_max must be at least 1\n"


def test_scan_matches_golden_output(capsys):
    assert_golden(capsys, "scan_logconcavity_n35.json", "scan",
                  "logconcavity", "--n-max", "35", "--format", "json")
    assert_golden(capsys, "scan_asymptotics_n50.json", "scan", "asymptotics",
                  "--n-max", "50", "--format", "json")


# sha256 of stdout at the top of the admitted range, recorded before the
# count ladder moved from a condensation of A to the Toeplitz pass over X
# (the full kept set at order 200 when it was still one fresh condensation
# of A(200), equal to `count even --n 200`), and of the non-leading kept
# set {2, ..., 98, 100} at order 100, one fresh condensation of its block of
# A, recorded while that pass still stored every step's pivot rows; the
# outputs run to 224 KB and 594 KB, so only their digests are kept.  Each is
# regenerated from a checkout with
#   PYTHONPATH=src python -m offdiag.cli <argv> | sha256sum
TOP_OF_RANGE = (
    (("scan", "asymptotics", "--n-max", "100", "--format", "json"),
     "3d0c33a9ce180ac4de0f0547e855ce50b5d64c21bb3b0d95e482c12e860ba518"),
    (("count", "o", "--n", "199", "--all", "--format", "json"),
     "5b93472847f77ecbaa98a682c85c6d0f11abad1adf85d708be965f4d7c5c868d"),
    (("count", "o", "--n", "200", "--kept",
      ",".join(map(str, range(1, 201)))),
     "bced5da856d91afa7e55c69313aa9439395a1574867a3d748e8b9acc0a5fd017"),
    (("count", "o", "--n", "100", "--kept",
      ",".join(map(str, [*range(2, 99), 100]))),
     "5425262cc910bc03633d275fe955054578262ecaf0c484c10247c3cf78a5fc4b"),
)


def test_top_of_range_matches_pinned_digests(capsys):
    for argv, digest in TOP_OF_RANGE:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_oversized_requests_exit_2_up_front(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "d", "--n", "2401")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == ("error: this request needs a condensation of order 2402; "
                   "the largest supported order is 200\n")
    for argv in (("scan", "asymptotics", "--n-max", "101"),
                 ("scan", "logconcavity", "--n-max", "101"),
                 ("count", "o", "--n", "201", "--k", "1"),
                 ("verify", "--n-max", "201"),
                 ("verify", "rank", "--n-max", "201")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "largest supported order" in err
    assert err == ("error: n_max must be at most 200, since the largest "
                   "supported order is 200\n")
    # the smallest order-6 region (every label deleted) has 72 squares, past
    # the 64-square cap; an order-100000 region would take minutes to build
    for argv in (("--n", "6", "--kept", ""), ("--n", "100000")):
        start = time.perf_counter()
        code, out, err = run(capsys, "render", *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert (code, out) == (2, "")
        assert err == "error: region too large for exhaustive enumeration\n"


def test_scan_command_formats(capsys):
    code, out, _ = run(capsys, "scan", "logconcavity", "--n-max", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order,log_concave,pm_unimodal"
    assert len(lines) == 4

    code, out, _ = run(capsys, "scan", "asymptotics", "--n-max", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["passed"] is True
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["even_count"] == "2"

    code, out, _ = run(capsys, "scan", "asymptotics", "--n-max", "3")
    assert code == 0
    assert "asymptotics: PASS" in out


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "1")
    assert code == 0
    assert "total tilings" in out
    code, out, _ = run(capsys, "oracle", "--n", "3", "--compare")
    assert code == 0
    agreement = [line for line in out.splitlines()
                 if line.startswith("agreement")]
    assert agreement and agreement[0].endswith("yes")
    code, out, _ = run(capsys, "oracle", "--n", "3", "--format", "json",
                       "--compare")
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["o"] == ["2", "2", "2"]
    assert payload["matrix"]["nearly_total"] == "16"


def test_oracle_counts_the_tilings_once(capsys, monkeypatch):
    # each command reads OracleCounts.total once, so it counts the tilings
    # of the full region once
    import offdiag.oracle

    calls = []
    count_all_tilings = offdiag.oracle.count_all_tilings

    def counted(region):
        calls.append(region.n)
        return count_all_tilings(region)

    monkeypatch.setattr(offdiag.oracle, "count_all_tilings", counted)
    for fmt in ("plain", "json"):
        calls.clear()
        code, out, _ = run(capsys, "oracle", "--n", "7", "--format", fmt)
        assert code == 0
        assert str(2 ** 28) in out
        assert calls == [7]


def test_oracle_guard(capsys):
    code, _, err = run(capsys, "oracle", "--n", "11")
    assert code == 2
    assert "odd n <= 9" in err


def test_render_text(capsys):
    code, out, _ = run(capsys, "render", "--n", "1", "--index", "0")
    assert code == 0
    assert "cells bottom to top: +1" in out
    code, out, _ = run(capsys, "render", "--n", "3", "--kept", "",
                       "--index", "0")
    assert code == 0
    assert "cells bottom to top:" in out


def test_render_svg(capsys):
    import xml.etree.ElementTree as ET

    code, out, _ = run(capsys, "render", "--n", "1", "--format", "svg")
    assert code == 0
    assert ET.fromstring(out).tag.endswith("svg")


def test_render_refuses_repeated_kept_labels(capsys):
    code, out, err = run(capsys, "render", "--n", "3", "--kept", "1,1,2")
    assert code == 2
    assert out == ""
    assert err == "error: kept labels repeat: [1, 1, 2]\n"
    code, out, err = run(capsys, "render", "--n", "3", "--kept", "a")
    assert (code, out) == (2, "")
    assert err == ("error: --kept takes comma-separated integer labels, "
                   "not 'a'\n")


def test_closed_stdout_pipe_is_not_a_crash():
    # the reader of stdout is gone before anything is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "offdiag.cli", "render", "--n", "5",
             "--index", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert done.stderr == b""


def test_render_index_out_of_range(capsys):
    code, _, err = run(capsys, "render", "--n", "1", "--index", "5")
    assert code == 2
    assert "out of range" in err


def test_render_refuses_index_past_the_end_without_walking(capsys,
                                                            monkeypatch):
    import offdiag.oracle

    walked = []
    original = offdiag.oracle.enumerate_tilings

    def counting(region):
        for tiling in original(region):
            walked.append(tiling)
            yield tiling

    monkeypatch.setattr(offdiag.oracle, "enumerate_tilings", counting)
    code, out, err = run(capsys, "render", "--n", "5", "--index", "40000")
    assert (code, out) == (2, "")
    assert err == ("error: index 40000 out of range; "
                   "region has 32768 tilings\n")
    assert walked == []
    # an index in range walks only up to its tiling
    code, _, _ = run(capsys, "render", "--n", "3", "--index", "7")
    assert code == 0
    assert len(walked) == 8


def test_render_refuses_negative_index(capsys):
    # negative indexes are refused, not counted from the end; the count in
    # the message comes from the same pass
    for index in ("-1", "-64", "-65"):
        code, out, err = run(capsys, "render", "--n", "3", "--index", index)
        assert code == 2
        assert out == ""
        assert err == (f"error: index {index} out of range; "
                       "region has 64 tilings\n")


def test_bad_usage_exits_2(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "count", "widgets", "--n", "3")[0] == 2
    assert run(capsys, "scan", "logconcavity", "--format", "yaml")[0] == 2


# argvs for the dispatch test: each subcommand, valid and with -h; help
# and missing, unknown or abbreviated commands; an abbreviated flag, a
# `--flag=value`, `--` before a positional; leftover tokens; a bad int, a
# bad choice and a missing required flag
DISPATCHED = (
    ("count", "o", "--n", "5", "--k", "3"),
    ("verify", "identities", "--n-max", "4"),
    ("scan", "asymptotics", "--n-max", "3", "--format", "json"),
    ("oracle", "--n", "3"),
    ("render", "--n", "1"),
    ("count", "-h"),
    ("verify", "-h"),
    ("scan", "-h"),
    ("oracle", "-h"),
    ("render", "-h"),
    (),
    ("-h",),
    ("--help",),
    ("-h", "count"),
    ("frobnicate",),
    ("coun", "o", "--n", "5", "--k", "3"),
    ("count", "o", "--n", "5", "--k", "3", "--form", "csv"),
    ("count", "o", "--n=5", "--all"),
    ("count", "--n", "5", "--all", "--", "o"),
    ("count", "--", "o", "--n", "5", "--all"),
    ("count", "o", "--n", "5", "--k", "3", "extra"),
    ("count", "o", "--n", "5", "--k", "3", "--bogus"),
    ("count", "o", "--n", "five", "--k", "3"),
    ("count", "widgets", "--n", "3"),
    ("count", "o", "--k", "3"),
)


@pytest.mark.parametrize("argv", DISPATCHED,
                         ids=lambda argv: " ".join(argv) or "(empty)")
def test_dispatch_matches_the_top_level_parse(capsys, argv):
    # `main` hands a subcommand's tokens straight to its parser; every
    # outcome must be what the top-level parser's own pass gives, compared
    # at run time, since argparse's text differs between Python versions
    import offdiag.cli

    def top_level(argv):
        try:
            args = offdiag.cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)

    want = top_level(list(argv)), *capsys.readouterr()
    assert run(capsys, *argv) == want


def test_main_reads_sys_argv_without_an_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv",
                        ["offdiag", "count", "o", "--n", "5", "--k", "3"])
    assert main() == 0
    assert capsys.readouterr() == ("60\n", "")
    monkeypatch.setattr(sys, "argv", ["offdiag", "count", "o", "--n", "5",
                                      "--k", "3", "extra"])
    assert main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: offdiag [-h]")
    assert err.endswith("error: unrecognized arguments: extra\n")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import offdiag.cli

    bad = ["count", "widgets", "--n", "3"]
    with pytest.raises(SystemExit) as exc:
        offdiag.cli.build_parser().parse_args(bad)
    assert exc.value.code == 2
    fresh = capsys.readouterr().err
    built = []
    build = offdiag.cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(offdiag.cli, "_parser", None)
    monkeypatch.setattr(offdiag.cli, "build_parser", counted)
    assert run(capsys, "count", "even", "--n", "4") == (0, "12\n", "")
    assert run(capsys, *bad) == (2, "", fresh)
    assert run(capsys, "count", "o", "--n", "3", "--k", "2") == (0, "2\n", "")
    assert built == [1]
    assert fresh.startswith("usage: offdiag count")
