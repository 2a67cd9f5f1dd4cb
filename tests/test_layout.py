"""Layout guard: only grids.py decides between the circle and the cubed sphere.

Every other module calls the grid interface (see tests/test_grids.py). A
comparison of ``n``, ``<obj>.n`` or ``<obj>["n"]`` with an integer literal is
allowed only in the functions below, where the n >= 2 restriction is the
physics (the Pick invariant, computed only for n >= 2), or where it validates
input. The flow's right side and step bound state one formula for both grids.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "centroflow"

ALLOWED = {
    ("config", "validate"),
    ("invariants", "compute_invariants"),
    ("support", "fourier_support"),
}


def _is_dimension(node):
    if isinstance(node, ast.Name):
        return node.id == "n"
    if isinstance(node, ast.Attribute):
        return node.attr == "n"
    if isinstance(node, ast.Subscript):
        key = node.slice
        return isinstance(key, ast.Constant) and key.value == "n"
    return False


def _is_int_literal(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def dimension_branches(source):
    """(function name, line) of each n-vs-integer comparison in module source."""
    tree = ast.parse(source)
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(_is_dimension(op) for op in operands)
                    and any(_is_int_literal(op) for op in operands)):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "grids.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_dimension_branch_outside_grids(path):
    stray = [f"{path.name}:{line} in {func}()"
             for func, line in dimension_branches(path.read_text())
             if (path.stem, func) not in ALLOWED]
    assert not stray, "branch on n outside grids.py: " + ", ".join(stray)


def test_guard_sees_each_comparison_form():
    src = ("def f(n, field, cfg):\n"
           "    a = n == 1, field.n != 2, cfg['n'] == 1, 1 < n\n"
           "    return n + 1 == field, field.m == 1, n == True\n")
    assert dimension_branches(src) == [("f", 2)] * 4
