"""The offdiag benchmark: run workloads in fresh processes and print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is used from `src/` the way the
tests use it (PYTHONPATH=src), after its bytecode is compiled.  Without
--workload every workload runs in turn.  A run spawns the workload's process
again and again for --seconds and reports medians over those processes.

With --trace 0 the last stdout line is one JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 the same processes run
alternately untraced and under the outside-in tracer (child.py), and the
object holds every per-layer metric instead.  `correct` is false when any
output fails the correctness gate, or when a traced output differs from the
untraced one.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from tracer import layer_value
from workloads import (WORKLOADS, check_command, expected_for, query_mix,
                       repeat_share, second_route)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is sampled between the workload's processes, so that its median
# covers the same stretch of the run as the workload's.
SETUP_PER_ROUND = 3
MIN_PROCESSES = 3        # untraced runs: the median needs a few processes
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Proc:
    wall_s: float
    code: int
    out: bytes
    err: bytes

    def report(self) -> dict:
        """The JSON object child.py writes as its last line of stderr."""
        try:
            return json.loads(self.err.splitlines()[-1])
        except (IndexError, ValueError):
            return {}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OFFDIAG_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def _drain(proc, deadline) -> tuple[bytes, bytes]:
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError(f"{proc.args} ran past its time limit")
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(argv, env) -> Proc:
    """Run one process to its exit, timed from spawn to exit."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            out, err = _drain(proc, t0 + CHILD_TIMEOUT_S)
            code = proc.wait()
        except BaseException:
            proc.kill()
            raise
        wall = time.perf_counter() - t0
    return Proc(wall, code, out, err)


@dataclass(frozen=True)
class Round:
    procs: list[Proc]
    factor: float    # reference host seconds per second measured in the round

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor


def repeat(argvs, seconds, min_rounds, env) -> list[Round]:
    """Spawn the argvs in turn, round after round, while another round
    still fits in `seconds` (but at least `min_rounds` rounds).

    The calibration work runs before the first round and after each one; a
    round's factor puts its times in the host speed of the reference phase,
    from the calibrations on either side of it."""
    rounds = []
    t0 = time.perf_counter()
    before = calibrate.host_seconds()
    while True:
        procs = [spawn(a, env) for a in argvs]
        after = calibrate.host_seconds()
        rounds.append(Round(procs, calibrate.scale(1.0, before, after)))
        before = after
        elapsed = time.perf_counter() - t0
        if (len(rounds) >= min_rounds
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
            return rounds


def command_argvs(name, seed):
    """(untraced argv, traced argv) of a workload's process."""
    py, child = sys.executable, str(HERE / "child.py")
    w = WORKLOADS[name]
    if w.cli_args is None:
        return ([py, child, "query-mix", str(seed)],
                [py, child, "--trace", "query-mix", str(seed)])
    return ([py, child, "cli", *w.cli_args],
            [py, child, "--trace", "cli", *w.cli_args])


# --- correctness gate ---------------------------------------------------------

class Gate:
    """Counts attempted and failed ops.  An op is one command process, or one
    query of the query loop; it fails on a nonzero exit, an exception, or an
    answer the correctness checks reject."""

    def __init__(self, name, seed):
        self.name = name
        self.queries = query_mix(seed) if name == "query-mix" else None
        self.expected = (expected_for(name) if name.endswith("-scan")
                         else None)
        self.reference = None   # first output, that every other must equal
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict = {}

    def _fail(self, count, problem):
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(problem)

    def add(self, proc: Proc) -> object:
        """Gate one untraced or traced process; returns its comparable output."""
        if self.queries is None:
            self.attempted += 1
            if proc.code != 0:
                self._fail(1, f"exit {proc.code}: {proc.err[-300:]!r}")
            else:
                problems = check_command(self.name, proc.out, self.expected)
                if problems:
                    self._fail(1, "; ".join(problems[:3]))
            return proc.out
        self.attempted += len(self.queries)
        if proc.code != 0:
            self._fail(len(self.queries), f"query loop exit {proc.code}: "
                                          f"{proc.err[-300:]!r}")
            return None
        doc = json.loads(proc.out)
        answers = list(zip(doc["codes"], doc["outputs"]))
        for argv, (code, output) in zip(self.queries, answers):
            problem = self._verdict(argv, code, output)
            if problem:
                self._fail(1, problem)
        return answers

    def _verdict(self, argv, code, output):
        key = (tuple(argv), code, output)
        if key not in self._verdicts:
            if code != 0:
                problem = f"{' '.join(argv)}: exit {code}: {output.strip()}"
            else:
                problem = second_route(argv, output.strip())
            self._verdicts[key] = problem
        return self._verdicts[key]

    def same_as_reference(self, output, what):
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            self._fail(1, f"{what} output differs from the first process")


# --- metrics ------------------------------------------------------------------

def end_to_end(name, seed, seconds, env):
    """Times are scaled to the reference host speed round by round (see
    calibrate.py); the notes line keeps the raw process walls."""
    untraced, _ = command_argvs(name, seed)
    setup_argv = [sys.executable, "-c", "import offdiag, offdiag.cli"]
    rounds = repeat([untraced] + [setup_argv] * SETUP_PER_ROUND, seconds,
                    MIN_PROCESSES, env)
    procs = [r.procs[0] for r in rounds]
    gate = Gate(name, seed)
    for p in procs:
        gate.same_as_reference(gate.add(p), "untraced")
    setup = [r.scaled(p.wall_s) for r in rounds for p in r.procs[1:]]
    latencies, busy_s = [], 0.0
    for r in rounds:
        p = r.procs[0]
        if gate.queries is None:
            latencies.append(r.scaled(p.wall_s))
            busy_s += r.scaled(p.wall_s)
        elif p.code == 0:
            doc = json.loads(p.out)
            latencies += [r.scaled(t) for t in doc["latencies"]]
            busy_s += r.scaled(doc["loop_s"])
    values = {
        "wall_s": statistics.median(r.scaled(r.procs[0].wall_s)
                                    for r in rounds),
        "setup_s": statistics.median(setup),
    }
    rss = [r["peak_rss_mb"] for r in (p.report() for p in procs)
           if "peak_rss_mb" in r]
    if rss:
        values["peak_rss_mb"] = statistics.median(rss)
    if len(latencies) >= 2:
        values.update({
            "query_p50_ms": 1e3 * statistics.median(latencies),
            "query_p90_ms": 1e3 * statistics.quantiles(
                latencies, n=10, method="inclusive")[8],
            "queries_per_s": len(latencies) / busy_s,
        })
    notes = {"processes": len(procs), "queries": len(latencies),
             "setup_samples": len(setup),
             "factors": ",".join(f"{r.factor:.3f}" for r in rounds),
             "raw_walls": ",".join(f"{p.wall_s:.3f}" for p in procs)}
    return gate, values, notes


def per_layer(name, seed, seconds, env, metric_names):
    untraced, traced = command_argvs(name, seed)
    rounds = repeat([untraced, traced], seconds, 1, env)
    gate = Gate(name, seed)
    summaries = []
    for plain, under_trace in (r.procs for r in rounds):
        gate.same_as_reference(gate.add(plain), "untraced")
        gate.same_as_reference(gate.add(under_trace), "traced")
        if under_trace.code == 0:
            summary = under_trace.report()
            summary["wall_s"] = under_trace.wall_s
            summaries.append(summary)
    if not summaries:
        return gate, {}, {"rounds": len(rounds)}
    special = {
        "trace.overhead_frac": statistics.median(
            r.procs[1].wall_s / r.procs[0].wall_s for r in rounds) - 1,
        "trace.unspanned_s": statistics.median(
            s["wall_s"] - s["spanned_s"] for s in summaries),
        "workload.repeat_share": (repeat_share(gate.queries)
                                  if gate.queries else 0.0),
    }
    values = {m: special[m] if m in special else
              statistics.median(layer_value(s, m) for s in summaries)
              for m in metric_names}
    return gate, values, {"rounds": len(rounds)}


# --- entry point --------------------------------------------------------------

def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run_one(name, seed, seconds, trace, spec, env) -> dict:
    if trace:
        metrics = spec["per_layer"]
        gate, values, notes = per_layer(name, seed, seconds, env,
                                        [m["name"] for m in metrics])
    else:
        metrics = spec["end_to_end"]
        gate, values, notes = end_to_end(name, seed, seconds, env)
    notes["fail_frac"] = gate.failed / max(gate.attempted, 1)
    print(f"# {name} seed={seed} trace={trace} "
          + " ".join(f"{k}={v}" for k, v in notes.items()))
    for problem in gate.problems:
        print(f"# FAIL {name}: {problem}")
    return {
        "correct": gate.failed == 0 and len(values) == len(metrics),
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics if m["name"] in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "offdiag" / "__init__.py").is_file():
        print(f"error: no offdiag package under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: src does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # for the query-mix second routes
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    env = child_env()
    print("# environment " + json.dumps(environment()))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, seconds, args.trace, spec,
                                env)
        if not args.workload:
            for metric, m in results[name]["metrics"].items():
                print(f"{name:18s} {metric:40s} {m['value']:14.6g} {m['unit']}")
            r = results[name]
            print(f"{name:18s} {'fail_frac':40s} "
                  f"{r['failed'] / r['attempted']:14.6g} ratio")
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
