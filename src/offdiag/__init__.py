"""Exact enumeration of off-diagonally symmetric domino tilings.

Three independent routes to the same numbers: Pfaffians of structured skew
matrices (fast, exact), non-intersecting lattice path families (the
combinatorial engine behind the matrices), and a brute-force tiling oracle
(small orders only).  The verify module cross-checks them and scans the
supporting identities; the cli module exposes everything as a command line.

The oracle and verify modules load on first use, so a count pays nothing
for them.  They are registered in `sys.modules` at import through
`importlib.util.LazyLoader`, not merely deferred, so that code which looks
them up there (a tracer walking every `offdiag.*` namespace, say) finds
them; their first attribute access runs them.  The names re-exported from
them resolve through the module `__getattr__`.
"""

from .counts import (
    count_nearly,
    count_off_diag,
    d_entry_bordered,
    d_vector,
    even_order_full,
    o_vector,
)
from .matrices import (
    g_sequence,
    matrix_a,
    matrix_b,
    matrix_m,
    matrix_r,
    pell_vector,
    r_value,
    t_array,
)
from .paths import PathGraph, delannoy, enumerate_families, q_doublet
from .pfaffian import (
    SkewMatrix,
    bordered_skew,
    determinant,
    pfaffian_cofactor,
    principal_submatrix,
    rational_rank,
)


def _lazy_submodule(name: str):
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


oracle = _lazy_submodule("oracle")
verify = _lazy_submodule("verify")

# Public name -> the lazy module it is read from, on every access (not
# cached here, so a rebinding in the module is always what is returned).
_LAZY_NAMES = {
    "build_region": oracle,
    "oracle_counts": oracle,
    "render_svg": oracle,
    "render_text": oracle,
    "CheckReport": verify,
    "CheckResult": verify,
    "scan_asymptotics": verify,
    "scan_log_concavity": verify,
    "verify_identities": verify,
    "verify_rank_claim": verify,
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CheckResult",
    "SkewMatrix",
    "PathGraph",
    "bordered_skew",
    "build_region",
    "count_nearly",
    "count_off_diag",
    "d_entry_bordered",
    "d_vector",
    "delannoy",
    "determinant",
    "enumerate_families",
    "even_order_full",
    "g_sequence",
    "matrix_a",
    "matrix_b",
    "matrix_m",
    "matrix_r",
    "o_vector",
    "oracle_counts",
    "pell_vector",
    "pfaffian_cofactor",
    "principal_submatrix",
    "q_doublet",
    "r_value",
    "rational_rank",
    "render_svg",
    "render_text",
    "scan_asymptotics",
    "scan_log_concavity",
    "t_array",
    "verify_identities",
    "verify_rank_claim",
    "__version__",
]
