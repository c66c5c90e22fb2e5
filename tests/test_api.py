"""The package's public names, pinned: removing or adding one is a
deliberate edit here."""

import types

import offdiag

PUBLIC = {
    "CheckReport", "CheckResult", "PathGraph", "SkewMatrix", "bordered_skew",
    "build_region", "count_nearly", "count_off_diag", "d_entry_bordered",
    "d_vector", "delannoy", "determinant", "enumerate_families",
    "even_order_full", "g_sequence", "matrix_a", "matrix_b", "matrix_m",
    "matrix_r", "o_vector", "oracle_counts", "pell_vector",
    "pfaffian_cofactor", "principal_submatrix", "q_doublet", "r_value",
    "rational_rank", "render_svg", "render_text", "scan_asymptotics",
    "scan_log_concavity", "t_array", "verify_identities",
    "verify_rank_claim", "__version__",
}


def test_public_names_are_pinned():
    assert set(offdiag.__all__) == PUBLIC
    assert len(offdiag.__all__) == len(PUBLIC)
    for name in offdiag.__all__:
        assert hasattr(offdiag, name), name
    # the submodule, not a function of the same name shadowing it
    assert isinstance(offdiag.pfaffian, types.ModuleType)
