"""Command line interface.

Subcommands: count (exact tiling counts), verify (identity battery and the
rank claim), scan (conjecture scans), oracle (exhaustive small-order recount),
render (draw one tiling as text or SVG).

`main` hands an argv whose first token is a subcommand's name straight to
that subcommand's parser; the top-level parser sees only the rest (help, a
missing or unknown command) and reports leftover tokens.  A plain argv (the
positional first, then distinct flags spelled in full, each value its own
token that does not start with "-") is read off the subcommand parser's own
actions and defaults, without argparse's generic pass; every other argv
(help, `--flag=value`, abbreviations, repeated flags, `--`, dash-led
values, bad values, missing flags, leftover tokens) goes through argparse,
so usage, help and error text are argparse's own either way.  An argument
that is not a string is refused before either path reads it.

Exit codes: 0 on success (also when the reader of stdout leaves early), 1
when a verification or comparison fails, 2 on usage errors or out-of-range
requests, 3 on an internal error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from itertools import islice

from . import oracle, verify
from .counts import (
    _defect_cells,
    _o_entry,
    count_nearly,
    count_off_diag,
    d_vector,
    even_order_full,
    o_vector,
)


def _parse_kept(text: str) -> tuple[int, ...]:
    labels = []
    for tok in filter(str.strip, text.split(",")):
        try:
            labels.append(int(tok))
        except ValueError:
            raise ValueError(f"--kept takes comma-separated integer labels, "
                             f"not {tok.strip()!r}") from None
    return tuple(labels)


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _write_csv(fields, rows) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields))
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _check_count_flags(args) -> None:
    """Refuse missing flags and flag combinations `count` would otherwise
    ignore; the library refuses the rest before it computes."""
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


def _cmd_count(args) -> int:
    _check_count_flags(args)
    target = args.target
    n = args.n
    payload = {"target": target, "n": n}
    if args.kept is not None:
        kept = _parse_kept(args.kept)
        payload["kept"] = list(kept)
        payload["value"] = str(count_off_diag(n, kept))
    elif target in ("d", "even"):
        count = count_nearly if target == "d" else even_order_full
        payload["value"] = str(count(n))
    elif args.all:
        vec = o_vector(n) if target == "o" else d_vector(target[1:], n)
        payload["values"] = [str(v) for v in vec]
    else:
        payload["k"] = args.k
        payload["value"] = str(_o_entry(n, args.k) if target == "o" else
                               _defect_cells(target[1:], n, [args.k])[0])
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        if "values" in payload:
            fields = ("n", "k", "value")
            rows = [{"n": n, "k": k, "value": v}
                    for k, v in enumerate(payload["values"], start=1)]
        else:
            fields = [f for f in ("n", "k", "kept", "value") if f in payload]
            rows = [{f: _join(payload[f]) if f == "kept" else payload[f]
                     for f in fields}]
        _write_csv(fields, rows)
    else:
        print(",".join(payload["values"]) if "values" in payload
              else payload["value"])
    return 0


def _print_report_plain(report) -> None:
    for r in report.results:
        print(f"{r.status:4s}  {r.check}  [{r.range}]")
        if r.witness is not None and r.status == "FAIL":
            print(f"      witness: {verify.jsonable(r.witness)}")
    print(f"{report.suite}: {'PASS' if report.passed else 'FAIL'}")


def _cmd_verify(args) -> int:
    # each suite refuses its n_max bounds before any check runs; the
    # identity suite's are the tighter and it runs first, so it refuses first
    reports = []
    if args.suite in (None, "identities"):
        reports.append(verify.verify_identities(args.n_max))
    if args.suite in (None, "rank"):
        reports.append(verify.verify_rank_claim(args.n_max))
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
    if args.kind == "logconcavity":
        report, rows = verify.scan_log_concavity(args.n_max)
    else:
        report, rows = verify.scan_asymptotics(args.n_max)
    if args.format == "json":
        print(json.dumps({"report": report.to_jsonable(), "rows": rows}))
    elif args.format == "csv":
        _write_csv(rows[0].keys(), rows)
    else:
        for row in rows:
            print("  ".join(f"{key}={value}" for key, value in row.items()))
        _print_report_plain(report)
    return 0 if report.passed else 1


# `oracle` output labels by OracleCounts field, in print order; the fields
# --compare recomputes, and their matrix routes, are verify's.
_ORACLE_LABELS = {
    "total": "total tilings",
    "off_diag_full": "off-diagonal, no deletion",
    "o": "deletion counts",
    "d_pm": "defect pm",
    "d_plus": "defect plus",
    "d_minus": "defect minus",
    "nearly_total": "nearly total",
}


def _cmd_oracle(args) -> int:
    counts = oracle.oracle_counts(args.n)
    n = counts.n

    def text(value):
        return _join(value) if isinstance(value, tuple) else str(value)

    def strings(value):
        if isinstance(value, tuple):
            return [str(v) for v in value]
        return str(value)

    lines = [("n", str(n))]
    payload = {"n": n}
    for field, label in _ORACLE_LABELS.items():
        value = getattr(counts, field)
        lines.append((label, text(value)))
        payload[field] = strings(value)
    agree = True
    if args.compare:
        routed, failures = verify._oracle_compare(counts)
        agree = not failures
        payload["matrix"] = {f: strings(v) for f, v in routed.items()}
        payload["agree"] = agree
        lines += [(f"matrix {_ORACLE_LABELS[field]}", text(value))
                  for field, value in routed.items()]
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
    region = oracle.build_region(args.n, kept)
    tilings = oracle.enumerate_tilings(region)  # refuses oversized regions
    total = oracle.count_all_tilings(region)
    if not 0 <= args.index < total:
        raise ValueError(
            f"index {args.index} out of range; region has {total} tilings")
    tiling = next(islice(tilings, args.index, None))
    if args.format == "svg":
        print(oracle.render_svg(region, tiling))
    else:
        print(oracle.render_text(region, tiling))
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
                          help="odd order, at most 9")
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

    # each subcommand's parser by name, for `main`'s dispatch
    parser.commands = sub.choices
    return parser


def _plain_reader(parser: argparse.ArgumentParser):
    """Return a reader of `parser`'s plain argvs, or None if `parser` has an
    action the reader does not model.

    A plain argv is every positional, then distinct flags spelled in full,
    each value its own token that does not start with "-".  The reader
    gives the namespace `parser.parse_known_args` gives such an argv, with
    no leftover tokens, from the parser's own actions and defaults; it
    returns None for any other argv (help, `--flag=value`, abbreviations,
    repeated flags, `--`, dash-led values, a bad value, a missing required
    flag, leftover tokens), which argparse then reads itself.
    """
    if (parser.prefix_chars != "-" or parser.fromfile_prefix_chars
            or parser._mutually_exclusive_groups):
        return None
    defaults, positionals, flags = {}, [], {}
    for action in parser._actions:
        if type(action) is argparse._HelpAction:
            continue  # not in `flags`, so argparse reads -h and --help
        store = (type(action) is argparse._StoreAction
                 and action.nargs is None
                 and not isinstance(action.choices, str)
                 and not (action.type and isinstance(action.default, str)))
        if (not (store or type(action) is argparse._StoreTrueAction)
                or getattr(action, "deprecated", False)
                or action.dest in defaults or action.dest == argparse.SUPPRESS
                or action.default is argparse.SUPPRESS):
            return None
        defaults[action.dest] = action.default
        for flag in action.option_strings:
            flags[flag] = action
        if not action.option_strings:
            positionals.append(action)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    required = {action for action in flags.values() if action.required}

    def read(tokens):
        if len(tokens) < len(positionals):
            return None
        pairs = list(zip(positionals, tokens))
        values, seen, i = dict(defaults), set(), len(pairs)
        while i < len(tokens):
            action = flags.get(tokens[i])
            if action is None or action in seen:
                return None
            seen.add(action)
            if action.nargs == 0:  # store_true
                values[action.dest] = action.const
                i += 1
            elif i + 1 < len(tokens):
                pairs.append((action, tokens[i + 1]))
                i += 2
            else:
                return None
        if not required <= seen:
            return None
        for action, token in pairs:
            if token[:1] == "-":
                return None
            try:
                value = action.type(token) if action.type else token
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        return argparse.Namespace(**values)

    return read


# Built by the first `main` call, not at import, and reused by later calls
# in the same process; so are the plain readers of its subcommands.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
        _parser.readers = {name: _plain_reader(command)
                           for name, command in _parser.commands.items()}
    if argv is None:
        argv = sys.argv[1:]
    for token in argv:
        if not isinstance(token, str):
            print(f"error: arguments must be strings, got {token!r}",
                  file=sys.stderr)
            return 2
    # A first token that names a subcommand skips the top-level pass, which
    # would only hand the rest on to that subcommand's parser.  A plain argv
    # (see `_plain_reader`) is read off that parser's actions without
    # argparse's generic pass; any other goes through the subcommand's
    # parser, and its leftover tokens are still reported by the top-level
    # parser, as parse_args would, so help and error text are argparse's
    # own.  Any other argv (empty, help, an unknown or abbreviated command)
    # goes through the top-level parser.
    command = _parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = _parser.parse_args(argv)
        else:
            read = _parser.readers[argv[0]]
            args = read(argv[1:]) if read else None
            if args is None:
                args, extras = command.parse_known_args(argv[1:])
                if extras:
                    _parser.error(
                        f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; point stdout at devnull so the
        # flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
