"""The package's public names, pinned: removing or adding one is a
deliberate edit here."""

import ast
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import offdiag

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = {
    "CheckReport", "CheckResult", "PathGraph", "SkewMatrix", "bordered_skew",
    "build_region", "count_nearly", "count_off_diag", "d_entry_bordered",
    "d_vector", "delannoy", "determinant", "enumerate_families",
    "even_order_full", "g_sequence", "matrix_a", "matrix_b", "matrix_r",
    "o_vector", "oracle_counts", "pell_vector", "pfaffian_cofactor",
    "principal_submatrix", "q_doublet", "r_value", "rational_rank",
    "render_svg", "render_text", "scan_asymptotics", "scan_log_concavity",
    "t_array", "verify_identities", "verify_rank_claim", "__version__",
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


def test_no_module_imports_a_name_it_never_uses():
    # a name counts as used when the module reads it or lists it in __all__
    for path in sorted((SRC / "offdiag").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0]
                             for alias in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {alias.asname or alias.name
                             for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        assert imported <= used, (path.name, sorted(imported - used))


def test_one_divmod_in_the_one_exact_division():
    # every exact division of the package goes through series._exact, which
    # holds the one divmod call of the source
    found = []
    for path in sorted((SRC / "offdiag").glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "divmod"):
                owner = max((f for f in funcs
                             if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                found.append((path.name, getattr(owner, "name", None)))
    assert found == [("series.py", "_exact")]


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


# Each public callable that takes an order, called with that order alone.
ORDER_TAKING = {
    "PathGraph": offdiag.PathGraph,
    "build_region": offdiag.build_region,
    "count_nearly": offdiag.count_nearly,
    "count_off_diag": offdiag.count_off_diag,
    "d_entry_bordered": lambda n: offdiag.d_entry_bordered("pm", n, 1),
    "d_vector": lambda n: offdiag.d_vector("pm", n),
    "even_order_full": offdiag.even_order_full,
    "matrix_a": offdiag.matrix_a,
    "matrix_b": offdiag.matrix_b,
    "matrix_r": offdiag.matrix_r,
    "o_vector": offdiag.o_vector,
    "oracle_counts": offdiag.oracle_counts,
    "pell_vector": offdiag.pell_vector,
    "r_value": lambda n: offdiag.r_value(n, 1, 1),
    "scan_asymptotics": offdiag.scan_asymptotics,
    "scan_log_concavity": offdiag.scan_log_concavity,
    "t_array": lambda n: offdiag.t_array(n, n),
    "verify_identities": offdiag.verify_identities,
    "verify_rank_claim": offdiag.verify_rank_claim,
}
# Callables that take an integer for which 0 is in range.
INDEX_TAKING = {
    "delannoy": lambda k: offdiag.delannoy(k, k),
    "g_sequence": offdiag.g_sequence,
}
NO_ORDER = {
    "CheckReport", "CheckResult", "SkewMatrix", "bordered_skew",
    "determinant", "enumerate_families", "pfaffian_cofactor",
    "principal_submatrix", "q_doublet", "rational_rank", "render_svg",
    "render_text", "__version__",
}


def test_orders_are_refused_before_any_work():
    # every public order is taken through operator.index and checked
    # first: a float raises TypeError and order 0 ValueError, at once even
    # where the float stands for an order far past every limit
    assert set(ORDER_TAKING) | set(INDEX_TAKING) | NO_ORDER == PUBLIC
    for call in ORDER_TAKING.values():
        for order in (3.0, 4.0, 30001.0, 3e4):
            start = time.perf_counter()
            with pytest.raises(TypeError):
                call(order)
            assert time.perf_counter() - start < 0.05
        with pytest.raises(ValueError):
            call(0)
    for call in INDEX_TAKING.values():
        for value in (3.0, 3e4):
            with pytest.raises(TypeError):
                call(value)
