"""Import layering: the interface diagnostics read fields, so they import
from the package's error and grid modules (and the interface report from the
J_r module), never from the operators, the solver, the barriers or the CLI;
a field's memo of derived data is grid.py's alone; and the package's
``__all__`` lists exactly what it imports."""

import ast
import os
import types

import pytest

import pucci_lab

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "pucci_lab")


# freeboundary may import monotonicity and not the reverse, so the two form no cycle
DIAGNOSTICS_IMPORTS = {"freeboundary": {".errors", ".grid", ".monotonicity"},
                       "monotonicity": {".errors", ".grid"}}


@pytest.mark.parametrize("module", sorted(DIAGNOSTICS_IMPORTS))
def test_diagnostics_never_import_operators_or_solver(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.module is None:  # from . import x imports the module x
                internal.update(name + a.name for a in node.names)
            elif node.level > 0 or name.startswith("pucci_lab"):
                internal.add(name)
        elif isinstance(node, ast.Import):
            internal.update(a.name for a in node.names if a.name.startswith("pucci_lab"))
    assert internal <= DIAGNOSTICS_IMPORTS[module], internal


def _memo_references(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "_memo")
            or (isinstance(node, ast.Constant) and node.value == "_memo")]


def test_field_memo_is_reached_only_through_grid():
    # what is memoized and when it is dropped is decided in one module; the
    # others decorate with grid.derived
    modules = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))
    assert _memo_references("grid")
    outside = {m: _memo_references(m) for m in modules if m != "grid"}
    assert not any(outside.values()), outside


def test_all_lists_every_public_name_the_package_imports():
    public = {name for name, value in vars(pucci_lab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(pucci_lab.__all__)) == len(pucci_lab.__all__)
    assert set(pucci_lab.__all__) == public | {"__version__"}
