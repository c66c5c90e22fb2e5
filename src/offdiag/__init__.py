"""Exact enumeration of off-diagonally symmetric domino tilings.

Three independent routes to the same numbers: Pfaffians of structured skew
matrices (fast, exact), non-intersecting lattice path families (the
combinatorial engine behind the matrices), and a brute-force tiling oracle
(small orders only).  The verify module cross-checks them and scans the
supporting identities; the cli module exposes everything as a command line.
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
    matrix_r,
    pell_vector,
    r_value,
    t_array,
)
from .oracle import build_region, oracle_counts, render_svg, render_text
from .paths import PathGraph, delannoy, enumerate_families, q_doublet
from .pfaffian import (
    SkewMatrix,
    bordered_skew,
    determinant,
    pfaffian_cofactor,
    principal_submatrix,
    rational_rank,
)
from .verify import (
    CheckReport,
    CheckResult,
    scan_asymptotics,
    scan_log_concavity,
    verify_identities,
    verify_rank_claim,
)

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
