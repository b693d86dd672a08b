"""Every caller of a ``_trusted`` constructor inside the package, pinned.

A ``_trusted`` constructor skips the checks of its class's public one
(symmetry, orthonormality), on the producer's word that its input needs
none.  Each caller is such a promise, so adding one has to come with an
edit here that names it.
"""

import ast
from pathlib import Path

import thirdopt

PACKAGE = Path(thirdopt.__file__).parent

# (module, enclosing function, called expression) of each call
TRUSTED_CALLS = {
    ("bench", "run_sampler", "SymTensor3._trusted"),
    ("escape", "_escape_search", "Subspace._trusted"),
    ("polynomials", "Polynomial.bundle", "DerivativeBundle._trusted"),
    ("polynomials", "Polynomial.bundle", "SymTensor3._trusted"),
    ("tensors", "SymTensor3.transform", "SymTensor3._trusted"),
    ("tensors", "SymTensor3.zeros", "cls._trusted"),
}


def _trusted_calls(tree: ast.Module, module: str) -> set:
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_trusted"):
            found.add((module, ".".join(scope), ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_trusted_constructors_have_only_the_pinned_callers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _trusted_calls(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == TRUSTED_CALLS


def test_scan_sees_calls_in_nested_scopes():
    source = "class A:\n    def f(self):\n        def g():\n            return B._trusted(1)\n"
    assert _trusted_calls(ast.parse(source), "m") == {("m", "A.f.g", "B._trusted")}
