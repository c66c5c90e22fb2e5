"""Tests of the benchmark itself (not of the package).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import offdiag
import offdiag.cli
import offdiag.paths
import pytest

import calibrate
from run import HERE, ROOT, Gate, Proc, child_env, spawn
from tracer import Tracer, layer_value
from workloads import (WORKLOADS, check_command, query_mix, repeat_share,
                       row_digest, second_route)

# The workloads at sizes small enough for a unit test; same commands.
SMALL = {
    "logconcavity-scan": [["scan", "logconcavity", "--n-max", "8",
                           "--format", "json"]],
    "asymptotics-scan": [["scan", "asymptotics", "--n-max", "12",
                          "--format", "json"]],
    "verify-battery": [["verify", "--n-max", "3", "--format", "json"]],
    "query-mix": [q for q in query_mix(7) if int(q[3]) <= 15],
}


def run_cli(queries) -> list[tuple[int, str]]:
    answers = []
    for argv in queries:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = offdiag.cli.main(list(argv))
        answers.append((code, out.getvalue()))
    return answers


def bindings():
    """Every name -> object binding the tracer may touch."""
    owners = [m for k, m in sys.modules.items()
              if k == "offdiag" or k.startswith("offdiag.")]
    owners += [offdiag.SkewMatrix, offdiag.PathGraph]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_rebinds_every_copy_and_restores_all():
    before = bindings()
    original = offdiag.counts.o_vector
    with Tracer():
        for holder in (offdiag, offdiag.counts, offdiag.verify, offdiag.cli):
            assert holder.o_vector is not original
        assert offdiag.paths.delannoy is before[
            (id(offdiag.paths), "delannoy")]
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracer_leaves_outputs_unchanged(name):
    plain = run_cli(SMALL[name])
    with Tracer() as tracer:
        traced = run_cli(SMALL[name])
    assert traced == plain
    assert all(code == 0 for code, _ in plain)
    assert tracer.summary()["spans"]["cli.main"][0] == len(SMALL[name])


def test_traced_counts_repeat_exactly():
    def counts():
        offdiag.paths.delannoy.cache_clear()
        with Tracer() as tracer:
            run_cli(SMALL["logconcavity-scan"])
        summary = tracer.summary()
        return ({k: v[0] for k, v in summary["spans"].items()},
                summary["counters"])

    first = counts()
    assert first == counts()
    assert first[0]["counts.o_vector"] == 16   # two per odd order <= 15


def test_nested_spans_split_self_time():
    with Tracer() as tracer:
        offdiag.d_vector("pm", 9)
    s = tracer.summary()
    calls, total, self_s = s["spans"]["counts.d_vector"]
    children = s["spans"]["counts.o_vector"][1] + s["spans"][
        "matrices.matrix_m"][1]
    assert calls == 1
    assert self_s == pytest.approx(total - children, abs=1e-6)
    assert s["spanned_s"] == pytest.approx(total)


def test_generator_spans_count_items():
    region = offdiag.build_region(3)
    with Tracer() as tracer:
        tilings = list(offdiag.oracle.enumerate_tilings(region))
    assert layer_value(tracer.summary(),
                       "oracle.enumerate_tilings.tilings") == len(tilings)


def test_every_per_layer_metric_resolves():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with Tracer() as tracer:
        run_cli(SMALL["logconcavity-scan"])
    summary = tracer.summary()
    computed_by_run = {"trace.overhead_frac", "trace.unspanned_s",
                       "workload.repeat_share"}
    for m in spec["per_layer"]:
        if m["name"] not in computed_by_run:
            layer_value(summary, m["name"])


def test_query_mix_is_seeded():
    assert query_mix(11) == query_mix(11)
    assert query_mix(11) != query_mix(12)
    assert len(query_mix(11)) == len(query_mix(12))
    assert 0 < repeat_share(query_mix(11)) < 1


def test_query_mix_answers_pass_their_second_route():
    queries = SMALL["query-mix"]
    for argv, (_, out) in zip(queries, run_cli(queries)):
        assert second_route(argv, out.strip()) is None


@pytest.mark.parametrize("argv", [
    ["count", "o", "--n", "5", "--k", "3"],
    ["count", "o", "--n", "6", "--kept", "1,2,4,5"],
    ["count", "d", "--n", "5"],
    ["count", "even", "--n", "6"],
    ["count", "dplus", "--n", "5", "--k", "2"],
])
def test_gate_rejects_a_wrong_query_answer(argv):
    (code, out), = run_cli([argv])
    assert second_route(argv, out.strip()) is None
    assert second_route(argv, str(int(out) + 1)) is not None


def test_gate_counts_a_wrong_scan_row_as_failed():
    argv = SMALL["logconcavity-scan"][0]
    (_, out), = run_cli([argv])
    rows = [row_digest(r) for r in json.loads(out)["rows"]]
    assert check_command("logconcavity-scan", out, {"rows": rows}) == []
    wrong = {"rows": rows[:3] + [row_digest({"order": 7})] + rows[4:]}
    assert check_command("logconcavity-scan", out, wrong)

    gate = Gate("logconcavity-scan", seed=1)
    gate.expected = wrong
    gate.add(Proc(1.0, 0, out.encode(), b""))
    assert (gate.attempted, gate.failed) == (1, 1)


def test_gate_counts_a_wrong_query_answer_as_failed():
    gate = Gate("query-mix", seed=3)
    answers = run_cli(gate.queries[:5])
    codes = [c for c, _ in answers]
    outputs = [o for _, o in answers]
    outputs[0] = str(int(outputs[0]) + 2) + "\n"
    doc = {"codes": codes, "outputs": outputs, "latencies": [0.0] * 5}
    gate.queries = gate.queries[:5]
    gate.add(Proc(1.0, 0, json.dumps(doc).encode(), b""))
    assert (gate.attempted, gate.failed) == (5, 1)


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_scale_puts_times_in_the_reference_host_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(2.0, ref, ref) == pytest.approx(2.0)
    # A host running at half speed on both sides of a round halves its times.
    assert calibrate.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert calibrate.host_seconds(repeats=1) > 0


def test_child_reports_its_own_peak_memory_not_its_spawners():
    ballast = b"x" * (96 << 20)   # resident in the spawning process
    proc = spawn([sys.executable, str(HERE / "child.py"), "cli", "count",
                  "even", "--n", "2"], child_env())
    assert proc.code == 0 and len(ballast) == 96 << 20
    assert 0 < proc.report()["peak_rss_mb"] < 64
