"""One workload process, as the benchmark spawns it.

    python3 child.py [--trace] cli ARGS...      offdiag.cli.main(ARGS)
    python3 child.py [--trace] query-mix SEED   the seeded query loop

The query loop prints one JSON object: each query's exit code, output and
latency, and the loop's total time.  The last line of standard error is a
JSON object holding the process's own peak resident memory (`peak_rss_mb`)
and, with --trace, the summary of the outside-in tracer installed around the
work.  The offdiag package must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """This process's own peak resident memory, in MiB.

    Read from VmHWM, the peak of the address space the process runs in: on
    Linux ru_maxrss also counts the peak of the address space it replaced at
    exec, which is its spawner's."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_queries(seed: int) -> int:
    import offdiag.cli
    from workloads import query_mix

    clock = time.perf_counter
    codes, outputs, latencies = [], [], []
    loop0 = clock()
    for argv in query_mix(seed):
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = offdiag.cli.main(argv)
            except Exception as exc:  # a crashed query is a failed op
                code = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        codes.append(code)
        outputs.append(out.getvalue() + err.getvalue())
    loop_s = clock() - loop0
    print(json.dumps({"codes": codes, "outputs": outputs,
                      "latencies": latencies, "loop_s": loop_s}))
    return 0


def main(argv) -> int:
    trace = argv[:1] == ["--trace"]
    if trace:
        from tracer import Tracer
        argv = argv[1:]
    mode, rest = argv[0], argv[1:]
    tracer = Tracer() if trace else contextlib.nullcontext()
    with tracer:
        if mode == "cli":
            import offdiag.cli
            code = offdiag.cli.main(rest)
        else:
            code = run_queries(int(rest[0]))
    report = tracer.summary() if trace else {}
    report["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
