"""Command line interface.

Subcommands: count (exact tiling counts), verify (identity battery and the
rank claim), scan (conjecture scans), oracle (exhaustive small-order recount),
render (draw one tiling as text or SVG).

Exit codes: 0 on success, 1 when a verification or comparison fails, 2 on
usage errors or out-of-range requests.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .counts import (
    count_nearly,
    count_off_diag,
    d_vector,
    even_order_full,
    o_vector,
)
from .oracle import build_region, enumerate_tilings, oracle_counts, render_svg, render_text
from .verify import (
    jsonable,
    scan_asymptotics,
    scan_log_concavity,
    verify_identities,
    verify_rank_claim,
)


def _parse_kept(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _write_csv(fields, rows) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields))
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _require_positive(n_max: int) -> None:
    if n_max < 1:
        raise ValueError("--n-max must be at least 1")


def _check_count_flags(args) -> None:
    """Refuse missing flags, flag combinations `count` would otherwise
    ignore, and an out-of-range --k, before anything is computed."""
    given = [flag for flag, value in (("--k", args.k is not None),
                                      ("--all", args.all),
                                      ("--kept", args.kept is not None))
             if value]
    if args.target in ("d", "even") and given:
        raise ValueError(f"target {args.target} takes none of --k, --all, "
                         "--kept")
    if len(given) > 1:
        raise ValueError(f"{' and '.join(given)} cannot be combined")
    if args.kept is not None and args.target != "o":
        raise ValueError("--kept applies to target o only")
    if args.target == "o" and not given:
        raise ValueError("target o needs one of --k, --all, --kept")
    if args.target in ("dpm", "dminus", "dplus") and not given:
        raise ValueError(f"target {args.target} needs --k or --all")
    if args.k is not None and args.n >= 1 and not 1 <= args.k <= args.n:
        raise ValueError(f"cell index must be within 1..{args.n}")


def _cmd_count(args) -> int:
    _check_count_flags(args)
    target = args.target
    n = args.n
    if target == "o":
        if args.kept is not None:
            value = count_off_diag(n, _parse_kept(args.kept))
            payload = {"target": target, "n": n,
                       "kept": list(_parse_kept(args.kept)),
                       "value": str(value)}
            text = str(value)
        elif args.all:
            vec = o_vector(n)
            payload = {"target": target, "n": n,
                       "values": [str(v) for v in vec]}
            text = _join(vec)
        else:
            vec = o_vector(n)
            payload = {"target": target, "n": n, "k": args.k,
                       "value": str(vec[args.k - 1])}
            text = str(vec[args.k - 1])
    elif target == "d":
        value = count_nearly(n)
        payload = {"target": target, "n": n, "value": str(value)}
        text = str(value)
    elif target in ("dpm", "dminus", "dplus"):
        vec = d_vector(target[1:], n)
        if args.all:
            payload = {"target": target, "n": n,
                       "values": [str(v) for v in vec]}
            text = _join(vec)
        else:
            payload = {"target": target, "n": n, "k": args.k,
                       "value": str(vec[args.k - 1])}
            text = str(vec[args.k - 1])
    elif target == "even":
        value = even_order_full(n)
        payload = {"target": target, "n": n, "value": str(value)}
        text = str(value)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown target {target!r}")
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        if "values" in payload:
            fields = ("n", "k", "value")
            rows = [{"n": n, "k": k + 1, "value": v}
                    for k, v in enumerate(payload["values"])]
        elif "k" in payload:
            fields = ("n", "k", "value")
            rows = [{"n": n, "k": payload["k"], "value": payload["value"]}]
        elif "kept" in payload:
            fields = ("n", "kept", "value")
            rows = [{"n": n, "kept": _join(payload["kept"]),
                     "value": payload["value"]}]
        else:
            fields = ("n", "value")
            rows = [{"n": n, "value": payload["value"]}]
        _write_csv(fields, rows)
    else:
        print(text)
    return 0


def _print_report_plain(report) -> None:
    for r in report.results:
        print(f"{r.status:4s}  {r.check}  [{r.range}]")
        if r.witness is not None and r.status == "FAIL":
            print(f"      witness: {jsonable(r.witness)}")
    print(f"{report.suite}: {'PASS' if report.passed else 'FAIL'}")


def _cmd_verify(args) -> int:
    _require_positive(args.n_max)
    suite = None if args.all else args.suite
    reports = []
    if suite in (None, "identities"):
        reports.append(verify_identities(args.n_max))
    if suite in (None, "rank"):
        reports.append(verify_rank_claim(max(args.n_max, 3)))
    passed = all(r.passed for r in reports)
    if args.format == "json":
        print(json.dumps({
            "passed": passed,
            "suites": [r.to_jsonable() for r in reports],
        }))
    else:
        for report in reports:
            _print_report_plain(report)
        print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_scan(args) -> int:
    _require_positive(args.n_max)
    if args.kind == "logconcavity":
        report, rows = scan_log_concavity(args.n_max)
    else:
        report, rows = scan_asymptotics(args.n_max)
    if args.format == "json":
        print(json.dumps({"report": report.to_jsonable(), "rows": rows}))
    elif args.format == "csv":
        _write_csv(rows[0].keys(), rows)
    else:
        for row in rows:
            print("  ".join(f"{key}={value}" for key, value in row.items()))
        _print_report_plain(report)
    return 0 if report.passed else 1


def _cmd_oracle(args) -> int:
    counts = oracle_counts(args.n)
    lines = [
        ("n", str(counts.n)),
        ("total tilings", str(counts.total)),
        ("off-diagonal, no deletion", str(counts.off_diag_full)),
        ("deletion counts", _join(counts.o)),
        ("defect pm", _join(counts.d_pm)),
        ("defect plus", _join(counts.d_plus)),
        ("defect minus", _join(counts.d_minus)),
        ("nearly total", str(counts.nearly_total)),
    ]
    payload = {
        "n": counts.n,
        "total": str(counts.total),
        "off_diag_full": str(counts.off_diag_full),
        "o": [str(v) for v in counts.o],
        "d_pm": [str(v) for v in counts.d_pm],
        "d_plus": [str(v) for v in counts.d_plus],
        "d_minus": [str(v) for v in counts.d_minus],
        "nearly_total": str(counts.nearly_total),
    }
    agree = True
    if args.compare:
        n = counts.n
        matrix = {
            "o": o_vector(n),
            "d_pm": d_vector("pm", n),
            "d_plus": d_vector("plus", n),
            "d_minus": d_vector("minus", n),
            "nearly_total": count_nearly(n),
        }
        agree = (counts.o == matrix["o"] and counts.d_pm == matrix["d_pm"]
                 and counts.d_plus == matrix["d_plus"]
                 and counts.d_minus == matrix["d_minus"]
                 and counts.nearly_total == matrix["nearly_total"]
                 and counts.off_diag_full == 0)
        payload["matrix"] = {
            "o": [str(v) for v in matrix["o"]],
            "d_pm": [str(v) for v in matrix["d_pm"]],
            "d_plus": [str(v) for v in matrix["d_plus"]],
            "d_minus": [str(v) for v in matrix["d_minus"]],
            "nearly_total": str(matrix["nearly_total"]),
        }
        payload["agree"] = agree
        lines.append(("matrix deletion counts", _join(matrix["o"])))
        lines.append(("matrix defect pm", _join(matrix["d_pm"])))
        lines.append(("matrix defect plus", _join(matrix["d_plus"])))
        lines.append(("matrix defect minus", _join(matrix["d_minus"])))
        lines.append(("matrix nearly total", str(matrix["nearly_total"])))
        lines.append(("agreement", "yes" if agree else "NO"))
    if args.format == "json":
        print(json.dumps(payload))
    else:
        width = max(len(label) for label, _ in lines)
        for label, value in lines:
            print(f"{label:<{width}}  {value}")
    return 0 if agree else 1


def _cmd_render(args) -> int:
    kept = _parse_kept(args.kept) if args.kept is not None else None
    region = build_region(args.n, kept)
    tilings = list(enumerate_tilings(region))
    if not 0 <= args.index < len(tilings):
        raise ValueError(
            f"index {args.index} out of range; region has {len(tilings)} tilings")
    tiling = tilings[args.index]
    if args.format == "svg":
        print(render_svg(region, tiling))
    else:
        print(render_text(region, tiling))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offdiag",
        description="Exact counts of off-diagonally symmetric domino tilings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser(
        "count", help="print one exact count or a whole vector")
    p_count.add_argument("target",
                         choices=("o", "d", "dpm", "dminus", "dplus", "even"))
    p_count.add_argument("--n", type=int, required=True,
                         help="region order")
    p_count.add_argument("--k", type=int,
                         help="single 1-based cell index")
    p_count.add_argument("--all", action="store_true",
                         help="print the whole vector")
    p_count.add_argument("--kept",
                         help="comma-separated kept boundary labels "
                              "(target o only)")
    p_count.add_argument("--format", choices=("plain", "json", "csv"),
                         default="plain")
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser(
        "verify", help="run the identity battery and the rank claim")
    p_verify.add_argument("suite", nargs="?", choices=("identities", "rank"),
                          help="run a single suite (default: both)")
    p_verify.add_argument("--all", action="store_true",
                          help="run every suite (the default when no suite "
                               "is named)")
    p_verify.add_argument("--n-max", type=int, default=12)
    p_verify.add_argument("--format", choices=("plain", "json"),
                          default="plain")
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="run a conjecture scan")
    p_scan.add_argument("kind", choices=("logconcavity", "asymptotics"))
    p_scan.add_argument("--n-max", type=int, default=12,
                        help="scan m = 1..n_max (orders up to 2*n_max)")
    p_scan.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain")
    p_scan.set_defaults(func=_cmd_scan)

    p_oracle = sub.add_parser(
        "oracle", help="exhaustively recount a small odd order")
    p_oracle.add_argument("--n", type=int, required=True,
                          help="odd order, at most 5")
    p_oracle.add_argument("--compare", action="store_true",
                          help="also print the matrix-route values and "
                               "check agreement")
    p_oracle.add_argument("--format", choices=("plain", "json"),
                          default="plain")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_render = sub.add_parser("render", help="draw one tiling")
    p_render.add_argument("--n", type=int, required=True)
    p_render.add_argument("--kept",
                          help="comma-separated kept boundary labels "
                               "(default: all)")
    p_render.add_argument("--index", type=int, default=0,
                          help="tiling index in enumeration order")
    p_render.add_argument("--format", choices=("text", "svg"),
                          default="text")
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
