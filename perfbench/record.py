"""Record the scan rows that the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/record.py

Run it from the repository root, at a commit whose outputs are trusted; it
rewrites perfbench/expected/<workload>.json for the two scan workloads.
"""

from __future__ import annotations

import contextlib
import io
import json

import offdiag.cli

from workloads import EXPECTED, WORKLOADS, row_digest


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for name in ("logconcavity-scan", "asymptotics-scan"):
        args = WORKLOADS[name].cli_args
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = offdiag.cli.main(list(args))
        doc = json.loads(out.getvalue())
        if code != 0 or not doc["report"]["passed"]:
            raise SystemExit(f"{name}: the scan does not pass; not recorded")
        record = {"args": list(args),
                  "rows": [row_digest(row) for row in doc["rows"]]}
        (EXPECTED / f"{name}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        print(f"{name}: {len(record['rows'])} rows recorded")


if __name__ == "__main__":
    main()
