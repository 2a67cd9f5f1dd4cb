"""Caller guard: the package defines only what its program uses.

Every function, method and class defined in src/centroflow must be named in
centroflow.__all__ or referenced from the package itself, the demos, the
tools or the benchmark harness. A reference is an AST name or attribute,
so a mention in a docstring or comment does not count, and a definition
does not refer to itself by being defined. A name a function binds itself
(an argument, or an assignment, loop, comprehension or with target in its
body) is a local there and in the functions nested in it, not a reference,
even when it shares a definition's name. Dunders are exempt. Reference
code that only tests call lives in tests/reference.py.

The guard matches attributes by their bare name, so a definition named like
a method of np.ndarray, dict, list or str (x.copy(), x.extend(...)) always
looks called. SHADOWED lists every such definition, and each needs a
reference whose owner is known without types (self.name in its own class,
or Class.name), or the reason it has none.
"""

import ast
import pathlib

import numpy as np

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def body_of(func):
    """A function's body statements, or a lambda's expression, as a list."""
    return func.body if isinstance(func.body, list) else [func.body]


def local_names(func):
    """The names a function binds itself: its arguments and every name stored
    in its body (comprehensions included, nested functions and classes not),
    less those it declares global or nonlocal."""
    a = func.args
    names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
             if arg is not None}
    declared = set()
    todo = list(body_of(func))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


def references(source):
    """Every name and attribute the code of source reads or writes, but for
    the names of the locals of the functions they sit in."""
    refs = set()

    def visit(node, local):
        if isinstance(node, ast.Name) and node.id not in local:
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        body, inner = [], local
        if isinstance(node, FUNCTIONS):
            body, inner = body_of(node), local | local_names(node)
        for child in ast.iter_child_nodes(node):
            # the body reads the function's locals; its decorators, defaults
            # and annotations are read where it is defined
            visit(child, inner if any(child is b for b in body) else local)

    visit(ast.parse(source), frozenset())
    return refs


def unreferenced(modules, caller_sources, exported):
    """'module:qualified name' of each definition no caller refers to."""
    refs = set().union(*map(references, caller_sources))
    return [f"{name}:{qual}" for name, source in modules
            for qual, bare in definitions(source)
            if not (bare.startswith("__") and bare.endswith("__"))
            and bare not in exported and bare not in refs]


# every definition whose bare name is a method of np.ndarray, dict, list or
# str: None where a qualified reference calls it, else why none does
SHADOWED = {"grids:CubedSphereGrid.extend": None}
BUILTIN_METHODS = {name for t in (np.ndarray, dict, list, str) for name in dir(t)
                   if not name.startswith("__")}


def shadowed(modules):
    """'module:qualified name' of each definition named like a BUILTIN_METHODS method."""
    return sorted(f"{name}:{qual}" for name, source in modules
                  for qual, bare in definitions(source) if bare in BUILTIN_METHODS)


def qualified_references(source):
    """'Class.attr' for each self.attr inside class Class and each Class.attr:
    the attribute references whose owner is known without types."""
    refs = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            refs.add(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.ClassDef):
            refs.update(f"{node.name}.{sub.attr}" for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self")
    return refs


def uncalled_shadowed(modules, caller_sources, listed):
    """Shadowed definitions missing from listed, or listed with no reason and
    no qualified reference; and listed ones that are not shadowed definitions."""
    found = shadowed(modules)
    refs = set().union(*map(qualified_references, caller_sources))
    return ([key for key in found if key not in listed
             or (listed[key] is None and key.split(":", 1)[1] not in refs)]
            + sorted(set(listed) - set(found)))


def test_every_definition_has_a_caller():
    modules = [(p.stem, p.read_text()) for p in sorted(SRC.glob("*.py"))]
    callers = [p.read_text() for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))]
    stray = unreferenced(modules, callers, set(centroflow.__all__))
    assert not stray, "defined but never used outside the tests: " + ", ".join(stray)


def test_every_shadowed_definition_has_a_qualified_caller():
    modules = [(p.stem, p.read_text()) for p in sorted(SRC.glob("*.py"))]
    callers = [p.read_text() for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))]
    stray = uncalled_shadowed(modules, callers, SHADOWED)
    assert not stray, ("named like a builtin method, with no qualified caller or "
                       "reason, or listed but not defined: " + ", ".join(stray))


def test_shadowed_guard_needs_an_owner_or_a_reason():
    module = ('class Field:\n'
              '    def copy(self):\n'
              '        return self\n'
              '    def count(self):\n'
              '        return self.copy()\n'
              'def items():\n'
              '    return 0\n')
    assert shadowed([("m", module)]) == ["m:Field.copy", "m:Field.count", "m:items"]
    # x.count() and x.items() may be a list's and a dict's: not qualified
    caller = "x.count(), x.items()"
    listed = dict.fromkeys(["m:Field.copy", "m:Field.count", "m:items"])
    assert uncalled_shadowed([("m", module)], [module, caller], listed) \
        == ["m:Field.count", "m:items"]
    # Class.name qualifies, and so does a reason; an unlisted or stale entry is reported
    listed["m:items"] = "called as field.items() by the report"
    assert uncalled_shadowed([("m", module)], [module, "Field.count(f)"], listed) == []
    del listed["m:Field.copy"]
    listed["m:Field.gone"] = None
    assert uncalled_shadowed([("m", module)], [module, "Field.count(f)"], listed) \
        == ["m:Field.copy", "m:Field.gone"]


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


def test_guard_does_not_count_a_local_of_the_same_name():
    module = ('def rhs(field):\n'
              '    return field\n'
              'def step(x):\n'
              '    return x\n'
              'def frame():\n'
              '    return 0\n'
              'def k():\n'
              '    return 1\n'
              'def kept():\n'
              '    return 2\n')
    caller = ('def evolve(field, step):\n'             # an argument
              '    rhs = field * 2\n'                   # an assignment
              '    for frame in field:\n'               # a loop target
              '        step(rhs(frame))\n'
              '    def inner():\n'                      # the enclosing function's local
              '        return rhs + step\n'
              '    return [k for k in field], inner, lambda kept: kept\n'
              'def run(field):\n'
              '    return kept()\n')                    # a call from another function
    stray = ["m:rhs", "m:step", "m:frame", "m:k"]
    assert unreferenced([("m", module)], [caller], set()) == stray
    # a module-level read, or a write through a global declaration, still counts
    rescue = "x = rhs\ndef reset():\n    global frame\n    frame = None\n"
    assert unreferenced([("m", module)], [caller, rescue], set()) == ["m:step", "m:k"]
