"""Caller guard: the package defines only what its program uses.

Every function, method and class defined in src/centroflow must be named in
centroflow.__all__ or referenced from the package itself, the demos, the
tools or the benchmark harness. A reference is an AST name or attribute,
so a mention in a docstring or comment does not count, and a definition
does not refer to itself by being defined. Dunders are exempt. Reference
code that only tests call lives in tests/reference.py.
"""

import ast
import pathlib

import centroflow

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "centroflow"
CALLERS = ("src", "demos", "tools", "perfbench")


def definitions(source):
    """(qualified name, bare name) of every function, method and class in source."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def references(source):
    """Every name and attribute the code of source reads or writes."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def unreferenced(modules, caller_sources, exported):
    """'module:qualified name' of each definition no caller refers to."""
    refs = set().union(*map(references, caller_sources))
    return [f"{name}:{qual}" for name, source in modules
            for qual, bare in definitions(source)
            if not (bare.startswith("__") and bare.endswith("__"))
            and bare not in exported and bare not in refs]


def test_every_definition_has_a_caller():
    modules = [(p.stem, p.read_text()) for p in sorted(SRC.glob("*.py"))]
    callers = [p.read_text() for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))]
    stray = unreferenced(modules, callers, set(centroflow.__all__))
    assert not stray, "defined but never used outside the tests: " + ", ".join(stray)


def test_guard_counts_code_references_only():
    module = ('class Grid:\n'
              '    def __init__(self):\n'
              '        self.w = used()\n'
              '    def spare(self):\n'
              '        """spare() is mentioned only here."""\n'
              'def used():\n'
              '    return 1\n'
              'def exported():\n'
              '    return 2\n'
              'def orphan():\n'
              '    # orphan() in a comment\n'
              '    return Grid().spare\n')
    assert unreferenced([("m", module)], [module], {"exported"}) == ["m:orphan"]
    # a caller elsewhere rescues it, and so does an attribute of the same name
    assert unreferenced([("m", module)], [module, "orphan()"], {"exported"}) == []
    assert unreferenced([("m", module)], ["x.orphan", "Grid, used"], {"exported"}) \
        == ["m:Grid.spare"]
