"""No BLAS call on the estimator path, so results do not depend on its threads.

The kernel window sums and leaf moments of qdensity are fixed-order NumPy
reductions.  BLAS kernels split long dot products over their threads, so
a BLAS call on the estimator path would make the last bits of an SE
depend on OPENBLAS_NUM_THREADS.  One fixed script runs under one and
under two BLAS threads and must print the same bits; an AST check keeps
matrix products out of the estimator modules.
"""

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# SEs of one and two samples up to n = 10^5: band windows of about 12,500
# spacings and the block-moment table, fixed and fitted sigma, the density
# method, QRI/G2 and qcov matrices; every value printed as float.hex
SCRIPT = """
import numpy as np
from quantest import (InequalitySpec, QdMethod, TestOptions, q_test_one,
                      q_test_two, qcov, resolve_measure)

rng = np.random.default_rng(20261018)
methods = (QdMethod(), QdMethod(sigma=None), QdMethod(kind="density"))
values = []
for n in (10**3, 10**4, 10**5):
    x, y = rng.lognormal(0.0, 1.0, n), rng.lognormal(0.2, 0.8, n)
    for name in ("median", "iqr", "qr9010"):
        spec = resolve_measure(name)
        for method in methods:
            opts = TestOptions(var_method=method)
            values += [q_test_one(x, spec, opts).se, q_test_two(x, y, spec, opts).se]
    for spec in (InequalitySpec(J=100), InequalitySpec(kind="G2", J=400)):
        for method in methods[:2]:
            opts = TestOptions(var_method=method)
            values += [q_test_one(x, spec, opts).se, q_test_two(x, y, spec, opts).se]
    values += list(qcov(x, np.linspace(0.02, 0.98, 49)).matrix.ravel())
    values += list(qcov(y, [0.1, 0.5, 0.9], QdMethod(sigma=None)).matrix.ravel())
print(" ".join(float(v).hex() for v in values))
"""

# the modules between the data and a TestResult or QuantileCov
ESTIMATOR_MODULES = ("quantiles", "qdensity", "qcov", "measures", "inference", "verify",
                     "_normal")
BLAS_CALLS = {"dot", "matmul", "vecdot", "matvec", "inner", "tensordot"}
# verify's population values are the oracle the estimators are checked against
EXEMPT = {("verify", "population_measure_value")}


def run_script(threads: int) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_results_do_not_depend_on_the_blas_thread_count():
    one, two = run_script(1), run_script(2)
    assert len(one.split()) == 3 * (18 + 8 + 49 * 49 + 9)
    assert one == two


def blas_uses(module: str, exempt=EXEMPT):
    """(function, line) of every matrix product or BLAS-backed call in a module."""
    with open(os.path.join(SRC, "quantest", f"{module}.py")) as f:
        tree = ast.parse(f.read())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (module, function) in exempt:
            return
        matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        call = isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) in BLAS_CALLS
            or getattr(node.func, "id", None) in BLAS_CALLS)
        if matmul or call:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", ESTIMATOR_MODULES)
def test_no_blas_call_on_the_estimator_path(module):
    assert blas_uses(module) == []


def test_the_ast_check_sees_matrix_products():
    # the oracle it exempts holds one @, the inequality indices' quadrature
    found = blas_uses("verify", exempt=())
    assert [f for f, _ in found] == ["population_measure_value"]
