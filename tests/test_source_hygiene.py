"""Source checks over the package: no ``assert`` statements, no unused error classes,
the proof-carrying edge list built in one place, and a line budget.

``python -O`` strips ``assert`` statements, so an invariant written as one
is not checked in an optimized run; the package raises explicitly instead.
An exception class in ``errors.py`` that no other module names is a failure
mode nothing can raise.  ``polytope._ProvenEdges`` (edges proven for a
polytope object) is trusted because of who builds it, so it is called in
exactly one function, ``polytope.edge_directions``.  The package's total
line count may not grow past ``SOURCE_LINE_BUDGET``: a change that needs
more lines raises the number and says why in ``CHANGES.md``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "extparab"
SOURCE_LINE_BUDGET = 2725


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def assert_lines(tree):
    """Line numbers of the ``assert`` statements in a module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def names_used(tree):
    """Every identifier a module reads, imports or reaches as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def builders(trees, name):
    """(module, enclosing function or None) of every call of ``name``, in source order."""
    found = []

    def visit(module, node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(module, child, scope)

    for module, tree in trees.items():
        visit(module, tree, None)
    return found


def unnamed_classes(errors_tree, other_trees):
    """The classes defined in errors_tree that none of other_trees names."""
    used = set().union(*map(names_used, other_trees))
    defined = [node.name for node in errors_tree.body if isinstance(node, ast.ClassDef)]
    return [name for name in defined if name not in used]


def test_no_module_uses_assert():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = {path.name: lines for path in modules if (lines := assert_lines(parse(path)))}
    assert found == {}


def test_every_error_class_is_named_outside_errors():
    others = [parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"]
    assert unnamed_classes(parse(PACKAGE / "errors.py"), others) == []


def test_proof_carrying_types_are_built_in_one_function_each():
    trees = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert builders(trees, "_ProvenEdges") == [("polytope", "edge_directions")]


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= SOURCE_LINE_BUDGET, (
        f"src/extparab has {lines} lines, over the budget of {SOURCE_LINE_BUDGET}; "
        "ROADMAP.md (Quality of design) asks src/ to shrink while the outputs stay fixed, "
        "so raise the budget only with the reason recorded in CHANGES.md"
    )


def test_checks_see_what_they_look_for():
    module = ast.parse("def f(x):\n    assert x > 0\n    return x\n")
    assert assert_lines(module) == [2]
    errors = ast.parse(
        "class Base(Exception):\n    pass\n\n"
        "class Used(Base):\n    pass\n\n"
        "class Unused(Base):\n    pass\n"
    )
    users = [
        ast.parse("from .errors import Used\n"),
        ast.parse("from . import errors\ntry:\n    pass\nexcept errors.Base:\n    pass\n"),
    ]
    assert unnamed_classes(errors, users) == ["Unused"]
    assert unnamed_classes(errors, users[:1]) == ["Base", "Unused"]


def test_builders_names_the_function_around_every_call():
    module = ast.parse(
        "class _P(tuple):\n    pass\n\n"
        "def make(v):\n    return _P(v) if type(v) is not _P else v\n\n"
        "class Other:\n    def copy(self, v):\n        return m._P(v)\n\n"
        "LOADED = _P(())\n"
        "later = lambda v: _P(v)\n"
    )
    assert builders({"m": module}, "_P") == [("m", "make"), ("m", "copy"), ("m", None), ("m", None)]
