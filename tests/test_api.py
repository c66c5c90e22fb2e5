"""The package's public names, pinned: removing or adding one is a
deliberate edit here."""

import os
import subprocess
import sys
import types
from pathlib import Path

import offdiag

SRC = Path(__file__).resolve().parent.parent / "src"

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
    # the submodules re-exported from are the ones registered
    for name in ("verify", "oracle"):
        assert sys.modules[f"offdiag.{name}"] is getattr(offdiag, name)


def test_import_loads_no_rational_arithmetic():
    # every exact number in the package is an int
    code = ("import sys, offdiag, offdiag.cli; "
            "print(sorted({'fractions', 'decimal', 'numbers'} "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_count_loads_no_dataclasses_or_csv():
    # no module of the package loads dataclasses, and csv loads only for
    # --format csv
    code = "\n".join([
        "import contextlib, io, sys",
        "import offdiag, offdiag.cli",
        "out = io.StringIO()",
        "with contextlib.redirect_stdout(out):",
        "    assert offdiag.cli.main(['count', 'o', '--n', '5', '--k', '2'])"
        " == 0",
        "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))",
        "with contextlib.redirect_stdout(out):",
        "    assert offdiag.cli.main(['scan', 'asymptotics', '--n-max', '3'])"
        " == 0",
        "from offdiag import verify_identities",
        "print(verify_identities is offdiag.verify.verify_identities)",
        "print(out.getvalue().splitlines()[0])",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\nTrue\n36\n"


def test_no_command_loads_dataclasses():
    # every record in the package is a named tuple
    code = "\n".join([
        "import contextlib, io, sys",
        "import offdiag.cli",
        "argvs = (['verify', '--n-max', '4'],",
        "         ['scan', 'logconcavity', '--n-max', '3'],",
        "         ['oracle', '--n', '3', '--compare'])",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [offdiag.cli.main(argv) for argv in argvs]",
        "print(codes, 'dataclasses' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0] False\n"
