"""Cross-verification battery and numeric conjecture scans.

Every check compares two independently computed exact quantities and reports
PASS or FAIL with a witness for the first disagreement.  A statement that
holds by construction of what it reads, restates another check on part of
its range, or compares a linear combination of what another check compares,
can never be the only one to FAIL, so it is not registered.  Floats appear
only in the advisory columns of the asymptotic scan rows; no tolerance is
ever applied to a correctness decision.

Each check is declared once, by suite and id, in `CHECKS`; the suite runners
and the tests run it from there.  The checks are the paper's claims and the
identities they rest on; generic Pfaffian and power-series algebra is left to
the unit tests.

`_run_suite` gives the checks of one suite run one plain dict, and each
object that several checks read is built in it once, by `_once`: the walk
of each full region n <= 4, its symmetric tilings with their path
decompositions; the deletion counts of one fresh bordered pass,
`_o_vector_direct(n)`, for each odd n; `t_array(30, 30)`; and `matrix_r(n)`.
A check called alone gets a fresh dict.  The dict is not module state: it
is dropped when the run ends, so a later run, or a check run under a
replaced route, reads nothing an earlier run built, and nothing built for a
check outlives it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import index, mul

from . import series
from .counts import (
    _o_vector_direct,
    count_nearly,
    count_off_diag,
    d_vector,
    even_order_full,
    o_vector,
)
from .matrices import (
    MAX_ORDER,
    defect_weights,
    matrix_a,
    matrix_r,
    pell_vector,
    r_value,
    t_array,
)
from .oracle import (
    build_region,
    count_all_tilings,
    diagonal_profile,
    oracle_counts,
    paths_to_tiling,
    symmetric_tilings,
    tiling_to_paths,
)
from .paths import (
    FULL,
    REDUCED,
    delannoy,
    enumerate_families,
    q_doublet,
    signed_family_count,
    staircase,
)
from .pfaffian import rational_rank

_JSON_INT_LIMIT = 1 << 53


class CheckResult(namedtuple("CheckResult", "check range status witness",
                             defaults=(None,))):
    """One check's outcome: its id, the range it covered, "PASS" or "FAIL",
    and for a failure a witness dict (None otherwise)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


class CheckReport(namedtuple("CheckReport", "suite results")):
    """A suite's name and its CheckResults, in the order they ran."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def to_jsonable(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "check": r.check,
                    "range": r.range,
                    "status": r.status,
                    "witness": jsonable(r.witness),
                }
                for r in self.results
            ],
        }


def jsonable(value):
    """JSON-safe copy: ints beyond exact float range become decimal strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if abs(value) < _JSON_INT_LIMIT else str(value)
    if isinstance(value, float) or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


def _check(check_id: str, range_str: str, failures) -> CheckResult:
    witness = None
    if failures:
        witness = {"failures": len(failures), "first": failures[0]}
    return CheckResult(check=check_id, range=range_str,
                       status="FAIL" if failures else "PASS", witness=witness)


# The checks of each suite, keyed by check id, in report order.  Every check
# takes n_max (some ignore it) and, optionally, the suite run's dict of
# shared objects, and returns a CheckResult.
CHECKS: dict[str, dict] = {"identities": {}, "rank-claim": {}}

# The smallest n_max at which every check of a suite covers a nonempty range;
# below it some check would PASS over nothing, so the suite refuses to run.
MIN_N_MAX = {"identities": 4, "rank-claim": 3}

# The largest n_max either suite admits.  At n_max the identity suite counts
# o_vector(c) and d_vector("pm", c), each checked as an order-(c + 1)
# request, for the largest odd c <= n_max; above this bound they would pass
# matrices.MAX_ORDER and refuse, after every check before them had run.  The
# rank suite reads no count; it shares the bound, so both suites admit the
# same n_max, and `_run_suite` refuses a larger one up front.
MAX_N_MAX = MAX_ORDER - MAX_ORDER % 2


def _registered(suite: str, check_id: str):
    """Register a check body, which takes n_max and the suite run's dict of
    shared objects and returns its range string and its list of failures,
    under `suite` and `check_id`.  A check called without the dict gets a
    fresh one, so it builds everything it reads itself."""
    def register(body):
        def run(n_max: int, built: dict | None = None) -> CheckResult:
            return _check(check_id,
                          *body(n_max, {} if built is None else built))
        CHECKS[suite][check_id] = run
        return run
    return register


def _once(built: dict, key, build, *args):
    """built[key], set to build(*args) the first time a check of the suite
    run asks for it.  `build` is looked up by the caller at each ask, so a
    replaced route is the one that builds."""
    if key not in built:
        built[key] = build(*args)
    return built[key]


def _run_suite(suite: str, n_max: int) -> CheckReport:
    """Run every check of `suite` at n_max, in report order, with one
    dict of shared objects for the run (`_once`).  An n_max outside
    MIN_N_MAX[suite]..MAX_N_MAX is refused before any check runs, with the
    one line the command line prints."""
    n_max = index(n_max)
    if n_max < MIN_N_MAX[suite]:
        raise ValueError(f"n_max must be at least {MIN_N_MAX[suite]} for "
                         f"the {suite} suite")
    if n_max > MAX_N_MAX:
        raise ValueError(f"n_max must be at most {MAX_N_MAX}, since the "
                         f"largest supported order is {MAX_ORDER}")
    built = {}
    return CheckReport(suite=suite, results=tuple(
        run(n_max, built) for run in CHECKS[suite].values()))


# --- identity battery --------------------------------------------------------

@_registered("identities", "schroeder-generating-function")
def _check_schroeder_numbers(_n_max: int, _built: dict):
    count = 30
    sch = series.schroeder_numbers(count)
    failures = []
    if sch[:5] != (1, 2, 6, 22, 90):
        failures.append({"first-five": sch[:5]})
    rec = [1, 2]
    for n in range(2, count):
        rec.append(3 * rec[n - 1]
                   + sum(rec[k] * rec[n - 1 - k] for k in range(1, n - 1)))
    if sch != tuple(rec):
        failures.append({"expansion": sch, "recurrence": tuple(rec)})
    return "series expansion vs convolution recurrence, 30 terms", failures


@_registered("identities", "doublet-kernel-matches-recurrence")
def _check_kernel_matches_recurrence(n_max: int, _built: dict):
    cap = min(n_max, 8)
    failures = []
    for n in range(1, cap + 1):
        g = staircase(n, FULL)
        a = matrix_a(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = q_doublet(g, g.u[i], g.u[j])
                if got != a.rows[i - 1][j - 1]:
                    failures.append({"n": n, "i": i, "j": j, "kernel": got,
                                     "matrix": a.rows[i - 1][j - 1]})
    return f"full graphs n <= {cap}, all source pairs", failures


@_registered("identities", "path-counts-match-delannoy")
def _check_path_count_closed_forms(n_max: int, _built: dict):
    cap = min(n_max, 8)
    failures = []
    for n in range(1, cap + 1):
        g = staircase(n, FULL)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                even = g.count_paths(g.x[i], g.v[2 * j])
                if even != delannoy(i - j, j - 1):
                    failures.append({"n": n, "i": i, "j": j, "point": "even",
                                     "count": even})
                odd = g.count_paths(g.x[i], g.v[2 * j - 1])
                if odd != delannoy(i - j, j - 2):
                    failures.append({"n": n, "i": i, "j": j, "point": "odd",
                                     "count": odd})
                up = g.count_paths(g.u[i], g.v[2 * j])
                low = g.count_paths(g.u[i], g.v[2 * j - 1])
                s, d = up + low, up - low
                if s != 2 * delannoy(i - j, j - 1):
                    failures.append({"n": n, "i": i, "j": j, "sum": s})
                if d != 2 * delannoy(i - j - 1, j - 1):
                    failures.append({"n": n, "i": i, "j": j, "diff": d})
    return f"full graphs n <= {cap}, all labeled endpoints", failures


@_registered("identities", "kernel-translation-invariance")
def _check_translation_invariance(n_max: int, _built: dict):
    cap = min(n_max, 8)
    failures = []
    for n in range(2, cap + 1):
        g = staircase(n, REDUCED)
        shifts = [(v, (v[0] + 1, v[1] - 1)) for v in sorted(g.vertices)]
        shifts = [(v, v2) for v, v2 in shifts if v2 in g.vertices]
        for a, a2 in shifts:
            for b, b2 in shifts:
                if q_doublet(g, a, b) != q_doublet(g, a2, b2):
                    failures.append({"n": n, "a": a, "b": b})
    return f"reduced graphs n <= {cap}, all vertex pairs", failures


@_registered("identities", "wall-shift-boundary-term")
def _check_wall_shift(n_max: int, _built: dict):
    cap = min(n_max, 8)
    failures = []
    for n in range(2, cap + 1):
        g = staircase(n, REDUCED)
        for i in range(1, n):
            for j in range(1, n):
                lhs = q_doublet(g, g.x[i], g.w[j])
                rhs = q_doublet(g, g.x[i + 1], g.w[j + 1])
                if j == 1:
                    rhs += (-1) ** i
                if lhs != rhs:
                    failures.append({"n": n, "i": i, "j": j,
                                     "lhs": lhs, "rhs": rhs})
    return f"reduced graphs n <= {cap}", failures


@_registered("identities", "window-three-term-recurrence")
def _check_three_term_window(n_max: int, _built: dict):
    cap = min(n_max, 8)
    failures = []
    for n in range(4, cap + 1):
        g = staircase(n, REDUCED)
        h = staircase(n - 1, REDUCED)
        for i in range(3, n):
            lhs = q_doublet(g, g.x[i], g.w[2])
            rhs = (q_doublet(h, h.x[i], h.w[2])
                   + q_doublet(h, h.x[i - 1], h.w[2])
                   + q_doublet(g, g.x[i - 1], g.w[2]))
            if lhs != rhs:
                failures.append({"n": n, "i": i, "lhs": lhs, "rhs": rhs})
    return f"reduced graphs 4 <= n <= {cap}", failures


@_registered("identities", "corner-kernel-halves-pair")
def _check_corner_kernel(n_max: int, _built: dict):
    cap = min(n_max, 8)
    failures = []
    for n in range(2, cap + 1):
        g = staircase(n, FULL)
        lhs = q_doublet(g, g.u[n], g.w[1])
        pair = q_doublet(g, g.u[n - 1], g.u[n])
        rhs = pair // 2 + (-1) ** (n - 1)
        if pair % 2 or lhs != rhs:
            failures.append({"n": n, "lhs": lhs, "rhs": rhs})
    return f"full graphs 2 <= n <= {cap}", failures


@_registered("identities", "r-matrix-structure")
def _check_r_structure(n_max: int, built: dict):
    cap = min(n_max, 12)
    failures = []
    for n in range(1, cap + 1):
        # the structure is read off the path kernel, and matrix_r, built
        # from one t_array row by it, must equal the signed kernel; the
        # kernel's row 1 is read once
        rows = _once(built, ("matrix_r", n), matrix_r, n)
        first = [r_value(n, 1, j) for j in range(1, n + 1)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                kernel = r_value(n, i, j) if i > 1 else first[j - 1]
                signed = rows[i - 1][j - 1]
                want = first[j - i] if j > i else int(j == i)
                if kernel != want or signed != (-1) ** (n + j) * kernel:
                    failures.append({"n": n, "i": i, "j": j, "kernel": kernel,
                                     "structure": want, "matrix": signed})
    return f"triangularity, shift invariance, n <= {cap}", failures


@_registered("identities", "r-matrix-reverses-deletion-vector")
def _check_r_reverses_counts(n_max: int, built: dict):
    cap = min(n_max, 12)
    failures = []
    for n in range(1, cap + 1, 2):
        rows = _once(built, ("matrix_r", n), matrix_r, n)
        o = o_vector(n)
        image = tuple(sum(rows[i][j] * o[j] for j in range(n))
                      for i in range(n))
        if image != tuple(reversed(o)):
            failures.append({"n": n, "image": image, "vector": o})
    return f"odd orders <= {cap}", failures


@_registered("identities", "r-matrix-first-row-closed-forms")
def _check_r_first_row_closed_forms(n_max: int, _built: dict):
    cap = min(n_max, 12)
    failures = []
    for n in range(2, cap + 1):
        if r_value(n, 1, 2) != 2 * (n - 2):
            failures.append({"n": n, "j": 2, "got": r_value(n, 1, 2)})
    for n in range(3, cap + 1):
        if r_value(n, 1, 3) != 2 * (n - 2) ** 2:
            failures.append({"n": n, "j": 3, "got": r_value(n, 1, 3)})
    for n in range(4, cap + 1):
        # r_{1,4} = 2 (2n^3 - 12n^2 + 25n - 30) / 3, compared times 3
        want3 = 2 * (2 * n**3 - 12 * n**2 + 25 * n - 30)
        if 3 * r_value(n, 1, 4) != want3:
            failures.append({"n": n, "j": 4, "got": r_value(n, 1, 4),
                             "3*want": want3})
    return f"linear, square and cubic values, n <= {cap}", failures


@_registered("identities", "t-array-row-generating-function")
def _check_t_row_generating_function(_n_max: int, built: dict):
    cols = 30
    arr = _once(built, "t_array", t_array, cols, cols)
    failures = []
    rises, falls = (1,), (1,)  # (1 + z)^(n-1) and (1 - z)^(n-1), truncated
    for n in range(1, cols + 1):
        num = series.multiply(rises, (1, -1, -3, -1), cols)
        den = series.multiply(falls, (1, 1, -3, 1), cols)
        row = series.expand_rational(num, den, cols)
        if row != arr[n - 1]:
            failures.append({"n": n, "series": row[:6],
                             "array": arr[n - 1][:6]})
        rises = series.multiply(rises, (1, 1), cols)
        falls = series.multiply(falls, (1, -1), cols)
    return "rows n <= 30 against shifted rational expansion", failures


@_registered("identities", "t-array-alternating-convolution")
def _check_t_alternating_convolution(_n_max: int, built: dict):
    size = 30
    arr = _once(built, "t_array", t_array, size, size)
    failures = []
    for n, row in enumerate(arr, 1):
        signed = [-t if i % 2 else t for i, t in enumerate(row)]
        for j in range(1, size + 1):
            # sum over k of (-1)^(k + j) T(n, k) T(n, j + 1 - k)
            acc = sum(map(mul, signed[:j], row[j - 1::-1]))
            if j % 2 == 0:
                acc = -acc
            if acc != (1 if j == 1 else 0):
                failures.append({"n": n, "j": j, "sum": acc})
    return "rows and columns <= 30", failures


@_registered("identities", "diagonal-closed-form")
def _check_diagonal_closed_form(_n_max: int, built: dict):
    size = 30
    arr = _once(built, "t_array", t_array, size, size)
    closed = series.expand_rational(
        series.subtract(series.expand_rational((3, -1), (1,), size),
                        series.sqrt(series.expand_rational((1, -6, 1), (1,),
                                                           size))),
        (2, 2), size)
    sch = series.schroeder_numbers(size)
    failures = []
    for n in range(1, size + 1):
        diag = arr[n - 1][n - 1]
        finite = (sum((-1) ** (l - 1) * sch[n - 1 - l] for l in range(1, n))
                  + (-1) ** (n - 1))
        if not (diag == closed[n - 1] == finite):
            failures.append({"n": n, "array": diag, "closed": closed[n - 1],
                             "finite-sum": finite})
    return ("array diagonal vs algebraic series vs finite sum, n <= 30",
            failures)


@_registered("identities", "pell-equals-doubled-delannoy-sums")
def _check_pell_delannoy_sums(_n_max: int, _built: dict):
    pell = pell_vector(40)
    failures = []
    for i in range(1, 41):
        total = sum(2 * delannoy(i - j, j - 1) for j in range(1, i + 1))
        if total != pell[i - 1]:
            failures.append({"i": i, "sum": total, "pell": pell[i - 1]})
    return "indices i <= 40", failures


def _odd_cap(n_max: int) -> int:
    return n_max if n_max % 2 else n_max - 1


@_registered("identities", "deletion-vector-palindrome")
def _check_deletion_palindrome(n_max: int, _built: dict):
    cap = _odd_cap(n_max)
    failures = []
    for n in range(1, cap + 1, 2):
        o = o_vector(n)
        if o != tuple(reversed(o)):
            failures.append({"n": n, "vector": o})
    return f"odd orders <= {cap}", failures


@_registered("identities", "second-entry-ratios")
def _check_deletion_ratios(n_max: int, _built: dict):
    cap = _odd_cap(n_max)
    failures = []
    for n in range(3, cap + 1, 2):
        o = o_vector(n)
        if o[1] != (n - 2) * o[0]:
            failures.append({"n": n, "first": o[0], "second": o[1]})
        d = d_vector("pm", n)
        if d[1] != (n - 1) * d[0]:
            failures.append({"n": n, "d-first": d[0], "d-second": d[1]})
    return f"odd orders 3..{cap}", failures


@_registered("identities", "deletion-vector-bordered-route")
def _check_bordered_route(n_max: int, built: dict):
    cap = min(_odd_cap(n_max), 13)
    failures = []
    for n in range(1, cap + 1, 2):
        fast = o_vector(n)
        direct = _once(built, ("o_direct", n), _o_vector_direct, n)
        if fast != direct:
            failures.append({"n": n, "fast": fast, "direct": direct})
    return f"odd orders <= {cap}", failures


@_registered("identities", "defect-entry-routes-agree")
def _check_defect_routes(n_max: int, built: dict):
    cap = min(_odd_cap(n_max), 21)
    failures = []
    for n in range(1, cap + 1, 2):
        # the paper's Delannoy matrix equation, d_k = sum_l (-1)^(l-1)
        # w_kl o_l, over cell k's `defect_weights` w and the deletion counts
        # o of the fresh bordered pass: it is the Pfaffian of A(n) bordered
        # by w, as a bordered Pfaffian is linear in its border column
        o = _once(built, ("o_direct", n), _o_vector_direct, n)
        signed = [-e if l % 2 else e for l, e in enumerate(o)]
        # the plus weights are pm - minus and both routes are linear in
        # the weights, so a plus entry cannot disagree on its own
        for variant in ("pm", "minus"):
            vec = d_vector(variant, n)
            for k, entry in enumerate(vec, 1):
                direct = sum(map(mul, defect_weights(variant, n, k), signed))
                if direct != entry:
                    failures.append({"n": n, "variant": variant, "k": k,
                                     "bordered": direct, "matrix": entry})
    return (f"odd orders <= {cap}, all cells, pm and minus variants",
            failures)


@_registered("identities", "family-enumeration-matches-pfaffians")
def _check_family_enumeration(n_max: int, _built: dict):
    from itertools import combinations

    cap = min(n_max, 4)
    failures = []
    for n in range(1, cap + 1):
        g = staircase(n, FULL)
        for size in range(0, n + 1):
            for labels in combinations(range(1, n + 1), size):
                fams = enumerate_families(g, [g.u[i] for i in labels])
                signed = signed_family_count(fams)
                pf = count_off_diag(n, labels)
                if signed != pf:
                    failures.append({"n": n, "labels": labels,
                                     "families": signed, "pfaffian": pf})
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                fams = enumerate_families(g, (g.u[j], g.w[i]))
                signed = signed_family_count(fams)
                kernel = q_doublet(g, g.u[j], g.w[i])
                if signed != kernel:
                    failures.append({"n": n, "i": i, "j": j,
                                     "families": signed, "kernel": kernel})
    pair_cap = min(n_max, 5)
    for n in range(1, pair_cap + 1):
        g = staircase(n, FULL)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                fams = enumerate_families(g, (g.u[i], g.u[j]))
                kernel = q_doublet(g, g.u[i], g.u[j])
                if len(fams) != kernel or signed_family_count(fams) != kernel:
                    failures.append({"n": n, "i": i, "j": j,
                                     "families": len(fams),
                                     "kernel": kernel})
    return f"all start subsets n <= {cap}, pairs n <= {pair_cap}", failures


@_registered("identities", "nearly-families-split-by-endpoint")
def _check_nearly_families(n_max: int, _built: dict):
    cap = min(_odd_cap(n_max), 5)
    failures = []
    for n in range(1, cap + 1, 2):
        g = staircase(n, FULL)
        starts = [g.u[i] for i in range(1, n + 1)]
        per_cell = []
        for k in range(1, n + 1):
            lo_fams = enumerate_families(g, starts,
                                         fixed_ends=(g.v[2 * k - 1],))
            hi_fams = enumerate_families(g, starts, fixed_ends=(g.v[2 * k],))
            odd_perms = sum(1 for f in lo_fams + hi_fams if f.sign != 1)
            if odd_perms:
                failures.append({"n": n, "k": k,
                                 "odd-permutation-families": odd_perms})
            per_cell.append((signed_family_count(lo_fams),
                             signed_family_count(hi_fams)))
        pm = d_vector("pm", n)
        minus = d_vector("minus", n)
        for k in range(n):
            lo, hi = per_cell[k]
            if lo + hi != pm[k] or hi - lo != minus[k]:
                failures.append({"n": n, "k": k + 1, "lower-end": lo,
                                 "upper-end": hi, "pm": pm[k],
                                 "minus": minus[k]})
    return f"full graphs, odd n <= {cap}", failures


# Each OracleCounts field the matrix routes also compute, with its route, for
# `_oracle_compare`.
_ORACLE_ROUTES = (
    ("o", o_vector),
    ("d_pm", lambda n: d_vector("pm", n)),
    ("d_plus", lambda n: d_vector("plus", n)),
    ("d_minus", lambda n: d_vector("minus", n)),
    ("nearly_total", count_nearly),
)


def _oracle_compare(oc):
    """The one agreement rule of the oracle and the matrix routes, for
    oracle-agrees-small and `offdiag oracle --compare`: the matrix-route
    value of each field in `_ORACLE_ROUTES`, as a dict in route order, and
    the disagreements, one witness dict each.  The two agree when every
    routed field is equal and the full odd-order region has no
    off-diagonally symmetric tiling."""
    n = oc.n
    routed = {field: route(n) for field, route in _ORACLE_ROUTES}
    failures = [{"n": n, "field": field, "oracle": getattr(oc, field),
                 "matrix": value}
                for field, value in routed.items()
                if getattr(oc, field) != value]
    if oc.off_diag_full != 0:
        failures.append({"n": n, "full-region": oc.off_diag_full})
    return routed, failures


@_registered("identities", "oracle-agrees-small")
def _check_oracle_small(n_max: int, _built: dict):
    cap = min(_odd_cap(n_max), 5)
    failures = []
    for n in range(1, cap + 1, 2):
        failures += _oracle_compare(oracle_counts(n))[1]
    return f"exhaustive regions, odd n <= {cap}", failures


@_registered("identities", "tiling-count-power-of-two")
def _check_tiling_census(n_max: int, _built: dict):
    cap = min(n_max, 5)
    failures = []
    for n in range(1, cap + 1):
        total = count_all_tilings(build_region(n))
        want = 2 ** (n * (n + 1) // 2)
        if total != want:
            failures.append({"n": n, "count": total, "power": want})
    return f"full regions n <= {cap}", failures


def _walk(n: int):
    """The full order-n region and its symmetric tilings, in enumeration
    order, each with its path decomposition (`tiling_to_paths`)."""
    region = build_region(n)
    return region, [(tiling, tiling_to_paths(region, tiling))
                    for tiling in symmetric_tilings(region)]


@_registered("identities", "tiling-path-round-trip")
def _check_tiling_round_trip(n_max: int, built: dict):
    cap = min(n_max, 4)
    failures = []
    for n in range(1, cap + 1):
        region, walk = _once(built, ("walk", n), _walk, n)
        for index, (tiling, paths) in enumerate(walk):
            points = [p for path in paths.values() for p in path]
            if len(points) != len(set(points)):
                failures.append({"n": n, "index": index,
                                 "reason": "paths share a point"})
            elif paths_to_tiling(region, paths) != tiling:
                failures.append({"n": n, "index": index,
                                 "reason": "round trip differs"})
    return f"symmetric tilings of full regions, n <= {cap}", failures


@_registered("identities", "diagonal-doublet-law")
def _check_diagonal_doublet_law(n_max: int, built: dict):
    cap = min(n_max, 4)
    failures = []
    for n in range(1, cap + 1):
        region, walk = _once(built, ("walk", n), _walk, n)
        g = staircase(n, FULL)
        for index, (tiling, paths) in enumerate(walk):
            profile = diagonal_profile(region, tiling)
            ends = {path[-1] for path in paths.values()}
            for k in range(1, n + 1):
                both_or_neither = ((g.v[2 * k - 1] in ends)
                                   == (g.v[2 * k] in ends))
                if (profile[k - 1] == 0) != both_or_neither:
                    failures.append({"n": n, "index": index, "k": k,
                                     "value": profile[k - 1]})
    return f"symmetric tilings of full regions, n <= {cap}", failures


def verify_identities(n_max: int = 12) -> CheckReport:
    """Run the full identity battery, capped by n_max where it matters."""
    return _run_suite("identities", n_max)


# --- rank claim --------------------------------------------------------------

def _adjusted_left_block(order: int) -> list[list[int]]:
    """The left half - 1 columns of the reversal difference
    x[i][j] = r[i][order-1-j] - r[i][j] of R = `matrix_r(order)`, less the
    identity on top and plus the anti-identity just below the middle row."""
    half = (order + 1) // 2
    block = [[row[order - 1 - j] - row[j] for j in range(half - 1)]
             for row in matrix_r(order)]
    for r in range(half - 1):
        block[r][r] -= 1
        block[half + r][half - 2 - r] += 1
    return block


@_registered("rank-claim", "reversal-difference-rank")
def _check_reversal_rank(n_max: int, _built: dict):
    cap = _odd_cap(n_max)
    failures = []
    for order in range(3, cap + 1, 2):
        want = (order - 1) // 2
        rank = rational_rank(_adjusted_left_block(order))
        if rank != want:
            failures.append({"order": order, "rank": rank, "want": want})
    return f"odd orders 3..{cap}", failures


def verify_rank_claim(n_max: int = 21) -> CheckReport:
    """The rank claim at odd orders <= n_max, in one check on the reversal
    difference x[i][j] = r[i][order-1-j] - r[i][j] of R = `matrix_r(order)`:
    its left block, adjusted by the identity and the anti-identity
    (`_adjusted_left_block`), has full column rank (order - 1)/2.  That x
    annihilates the deletion-count vector is not a check of its own: R is
    upper triangular with a +-1 diagonal, so it holds exactly when the
    vector is a palindrome, which deletion-vector-palindrome checks.  The
    suite reads no count."""
    return _run_suite("rank-claim", n_max)


# --- conjecture scans ----------------------------------------------------------

def _is_unimodal(vec) -> bool:
    rising = True
    for a, b in zip(vec, vec[1:]):
        if rising and b < a:
            rising = False
        elif not rising and b > a:
            return False
    return True


def scan_log_concavity(n_max: int = 35):
    """Exact conjecture scan over odd orders 2m-1 for m <= n_max.

    Returns (report, rows).  The report's one check is that every
    deletion-count vector is log-concave (conjectured, decided by exact
    cross-multiplication); each row records that verdict and whether the
    per-cell defect vector is unimodal, which is not a check (it is
    expected not to be).  The largest order is asked for first, which
    extends the count ladder of `counts` once, to that order and no
    further; each deletion vector is then solved from its rung.
    """
    n_max = index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = []
    lc_failures = []
    # the largest order first: it refuses an oversized scan before any work
    # and extends the ladder once, so each order below is read off its rungs
    o_vector(2 * n_max - 1)
    for m in range(1, n_max + 1):
        order = 2 * m - 1
        o = o_vector(order)
        log_concave = True
        for k in range(1, order - 1):
            if o[k] * o[k] < o[k - 1] * o[k + 1]:
                log_concave = False
                lc_failures.append({"order": order, "k": k + 1,
                                    "triple": (o[k - 1], o[k], o[k + 1])})
                break
        rows.append({"order": order, "log_concave": log_concave,
                     "pm_unimodal": _is_unimodal(d_vector("pm", order))})
    result = _check("deletion-vector-log-concavity",
                    f"odd orders <= {2 * n_max - 1}, exact "
                    "cross-multiplication", lc_failures)
    return CheckReport(suite="log-concavity", results=(result,)), rows


# Bits of the exact root brackets behind gap-shrinks-past-calibration.  For
# every m = 6..100 (all the scans admit) each gap differs from the m = 5 gap
# by at least 3 685 units of 2^-20 (the least at m = 6), far above the
# brackets' 2 units, so every verdict is decided; with `_power_exceeds` the
# two roots cost ~0.06 ms at order ~100 and ~0.2 ms at order ~200 on a
# 2-vCPU VM.
_ROOT_BITS = 20


def _power_exceeds(y: int, e: int, target: int) -> bool:
    """Whether y**e > target, exactly, for y >= 1, e >= 0 and target >= 0,
    without computing y**e unless it must.

    Square and multiply along e's bits, keeping lo * 2^s <= y**d <= hi * 2^s
    for the exponent d read so far, with lo and hi held to k bits under one
    shared shift s (lo rounded down, hi up).  The bounds decide the
    comparison unless target lies between them; then k doubles, from 64.
    Once k reaches y**e's bit length nothing is rounded and lo = hi = y**e,
    so the answer is always exact."""
    k = 64
    while True:
        lo = hi = 1
        s = 0
        for bit in bin(e)[2:]:
            lo, hi, s = lo * lo, hi * hi, 2 * s
            if bit == "1":
                lo, hi = lo * y, hi * y
            drop = hi.bit_length() - k
            if drop > 0:
                lo, hi, s = lo >> drop, -(-hi >> drop), s + drop
        floor = target >> s
        if lo > floor:          # lo * 2^s > target, as lo is an integer
            return True
        if hi <= floor:         # hi * 2^s <= target
            return False
        k *= 2


def _root_offset(count: int, order: int) -> int:
    """An integer D with 2^p * (count^(2/order^2) - sqrt(2)) in (D-1, D+1),
    p = _ROOT_BITS.

    floor(2^p * count^(2/N^2)) is the integer N^2-th root of
    count^2 * 2^(p N^2); it is seeded from the float root and confirmed by
    two exact comparisons of powers with that target (`_power_exceeds`).
    floor(2^p * sqrt(2)) is isqrt(2^(2p+1)).
    """
    bits = _ROOT_BITS
    e = order * order
    target = count * count << (bits * e)
    root = int(math.ldexp(math.exp(2 * math.log(count) / e), bits))
    while _power_exceeds(root, e, target):
        root -= 1
    while not _power_exceeds(root + 1, e, target):
        root += 1
    return root - math.isqrt(2 << (2 * bits))


def _gap_shrunk(last: int, ref: int):
    """Whether |root - sqrt(2)| is smaller at `last` than at `ref`, given
    their `_root_offset`s: True or False when the brackets decide it, None
    when they overlap."""
    if abs(last) + 1 <= abs(ref) - 1:
        return True
    if abs(last) - 1 >= abs(ref) + 1:
        return False
    return None


def scan_asymptotics(n_max: int = 35):
    """Numeric growth scan: the square of each count, rooted by the region
    area, against sqrt(2).

    Returns (report, rows).  Roots and gaps are advisory floats; the checks
    are the exact base case and, past the calibration point, that the gap has
    shrunk relative to m=5, decided from exact rational brackets on the
    roots.  The largest order is asked for first, which extends the count
    ladder of `counts` once; every count is then a rung read.
    """
    n_max = index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    root2 = math.sqrt(2)
    rows = []
    # the largest order first: it refuses an oversized scan before any work
    even_order_full(2 * n_max)
    counts = [(even_order_full(2 * m), count_nearly(2 * m - 1))
              for m in range(1, n_max + 1)]
    for m, (even_count, nearly_count) in enumerate(counts, start=1):
        even_order = 2 * m
        odd_order = 2 * m - 1
        even_root = math.exp(2 * math.log(even_count) / even_order**2)
        nearly_root = math.exp(2 * math.log(nearly_count) / odd_order**2)
        rows.append({
            "m": m,
            "even_order": even_order,
            "even_count": str(even_count),
            "even_root": even_root,
            "even_gap": abs(even_root - root2),
            "odd_order": odd_order,
            "nearly_count": str(nearly_count),
            "nearly_root": nearly_root,
            "nearly_gap": abs(nearly_root - root2),
        })
    results = [
        _check("base-case-exact",
               "smallest even order; its rooted square is exactly sqrt(2)",
               [] if int(rows[0]["even_count"]) == 2 else
               [{"count": rows[0]["even_count"]}]),
    ]
    if n_max > 5:
        ref = rows[4]
        last = rows[-1]
        failures = []
        for kind, order_key, pos in (("even", "even_order", 0),
                                     ("nearly", "odd_order", 1)):
            shrunk = _gap_shrunk(
                _root_offset(counts[-1][pos], last[order_key]),
                _root_offset(counts[4][pos], ref[order_key]))
            if not shrunk:
                witness = {f"{kind}_gap_last": last[f"{kind}_gap"],
                           f"{kind}_gap_ref": ref[f"{kind}_gap"]}
                if shrunk is None:
                    witness["verdict"] = f"undecided at {_ROOT_BITS} bits"
                failures.append(witness)
        results.append(_check("gap-shrinks-past-calibration",
                              f"m = {n_max} against m = 5", failures))
    return CheckReport(suite="asymptotics", results=tuple(results)), rows
