"""Every float reduction outside ``spectral.py``, pinned.

``spectral.py`` holds the helpers (``_matmul``, ``_dot``, ``_vecdot``,
``_einsum``, ``_norm``, ``_row_norms``) through which the package sums
products of floats, so how those sums round, which depends on the
OpenBLAS kernel, is decided in that one file.  The scan fails when
another module spells such a reduction itself: the ``@`` operator, a
call of a numpy product function or method, or a ``linalg`` or ``roots``
call.  Each exception below states its reason.
"""

import ast
from pathlib import Path

import thirdopt

PACKAGE = Path(thirdopt.__file__).parent

# Names of the numpy functions and methods that sum products of floats,
# or decompose a matrix, when called
REDUCTIONS = {"dot", "vdot", "inner", "matmul", "vecdot", "einsum", "tensordot", "roots"}

# (module, enclosing function, reduction) of each allowed spelling, and why
ALLOWED = {
    ("bench", "_grid_minimum", "powers.T @ coeffs"):
        "the screen's values only rank grid points; the minimum is evaluated exactly",
    ("bench", "_grid_minimum", "screen @ powers"):
        "the screen's values only rank grid points; the minimum is evaluated exactly",
    ("bench", "quartic_descent_target", "np.roots"):
        "LAPACK eigenvalues of the companion matrix, which no helper wraps",
    ("bench", "_subproblem_grid_minimum", "np.linalg.eigvalsh"):
        "LAPACK eigenvalues, which no helper wraps",
    ("bench", "run_subproblem", "np.linalg.eigvalsh"):
        "LAPACK eigenvalues, which no helper wraps",
}


def _reductions(tree: ast.Module, module: str) -> set:
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add((module, ".".join(scope), ast.unparse(node)))
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.split(".")[-1] in REDUCTIONS or "linalg" in name.split("."):
                found.add((module, ".".join(scope), name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_reductions_outside_spectral_are_only_the_allowed():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "spectral":
            found |= _reductions(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == set(ALLOWED)


def test_scan_sees_each_spelling_in_nested_scopes():
    source = ("class A:\n    def f(self):\n        def g(a, b, x, y, v):\n"
              "            a @= b\n"
              "            return a @ b, x.dot(y), np.linalg.norm(v), np.einsum('i,i', x, y)\n")
    assert _reductions(ast.parse(source), "m") == {
        ("m", "A.f.g", "a @= b"),
        ("m", "A.f.g", "a @ b"),
        ("m", "A.f.g", "x.dot"),
        ("m", "A.f.g", "np.linalg.norm"),
        ("m", "A.f.g", "np.einsum"),
    }
