"""Every public name of the layer modules has a user outside its own definition.

A name in a module's ``__all__`` counts as used when some ``ast.Name`` or
``ast.Attribute`` in the package, the demos or the bench scripts refers to
it outside its own ``def``/``class``. The ``__all__`` strings and the
re-exports in ``__init__`` are not references, and neither are the tests:
API that only its own tests call is dead and should be deleted.

The core stays numpy-only: each module of the package imports nothing but
numpy, the standard library and the package itself.

A dataclass whose fields hold arrays compares by identity: a generated
``__eq__`` would compare the arrays and raise.
"""
import ast
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from spinctl import brachistochrone as bt, closedforms as cf, generators

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinctl"
MODULES = ("matrixcore", "generators", "brachistochrone", "closedforms", "oracle", "audit", "cli")
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")])


def _public_names(module: str) -> list[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{module} has no __all__")


class _References(ast.NodeVisitor):
    """Names referred to, skipping a definition's references to itself."""

    def __init__(self):
        self.names: set[str] = set()
        self._enclosing: list[str] = []

    def _visit_definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def _record(self, name: str):
        if name not in self._enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._record(node.id)

    def visit_Attribute(self, node):
        self._record(node.attr)
        self.generic_visit(node)


def _referenced() -> set[str]:
    refs = _References()
    for path in SOURCES:
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.names


REFERENCED = _referenced()


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_users(module):
    unused = [name for name in _public_names(module) if name not in REFERENCED]
    assert not unused, f"{module}.__all__ names nothing outside its tests uses: {unused}"


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of the modules a source file imports; '.' for its own package."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_core_imports_only_numpy_and_the_standard_library(path):
    allowed = {".", "numpy", PACKAGE.name, *sys.stdlib_module_names}
    assert _imported_roots(path) <= allowed, f"{path.name} imports {_imported_roots(path) - allowed}"


ARRAY_DATACLASSES = {
    "DiracParameters": lambda: cf.DiracParameters(1.0, [0.0, 0.0, 1.0]),
    "EigenFrame": lambda: cf.su4_eigenframe(cf.DiracParameters(1.0, [0.0, 0.0, 1.0]), 0.0),
    "UnitaryFamily": cf.su2_family,
    "OperatorPair": lambda: bt.OperatorPair(np.zeros(2), np.ones(1)),
    "Trajectory": lambda: bt.Trajectory(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 2))),
    "GeneratorBasis": lambda: dataclasses.replace(generators.build_basis("su2"),
                                                  elements=generators.build_basis("su2").elements.copy()),
    "DiracOperators": generators.dirac_operators,
}


@pytest.mark.parametrize("make", ARRAY_DATACLASSES.values(), ids=ARRAY_DATACLASSES.keys())
def test_array_dataclasses_compare_and_hash(make):
    a, b = make(), make()  # equal values in distinct arrays
    assert a == a and a != b
    assert hash(a) == hash(a)


def test_package_exports_the_integrate_error():
    # the public integrate raises it, so callers catch it from the package
    import spinctl
    assert spinctl.NonFiniteStateError is bt.NonFiniteStateError
