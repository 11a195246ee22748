"""Every public name of the layer modules has a user outside its own definition.

A name in a module's ``__all__`` counts as used when some ``ast.Name`` or
``ast.Attribute`` in the package, the demos or the bench scripts refers to
it outside its own ``def``/``class``. The ``__all__`` strings and the
re-exports in ``__init__`` are not references, and neither are the tests:
API that only its own tests call is dead and should be deleted. Likewise
every top-level private (``_``-prefixed, not dunder) function or class of
the package must be referred to by package code outside its own
definition: the tests, tools and bench do not count, so a helper that a
refactor leaves without callers fails here.

The core stays numpy-only: each module of the package imports nothing but
numpy's public modules, the standard library and the package itself. The
flow layer, brachistochrone.py, imports only public names of generators.

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


def _referenced(paths) -> set[str]:
    refs = _References()
    for path in paths:
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.names


REFERENCED = _referenced(SOURCES)
PACKAGE_REFERENCED = _referenced(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_users(module):
    unused = [name for name in _public_names(module) if name not in REFERENCED]
    assert not unused, f"{module}.__all__ names nothing outside its tests uses: {unused}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_helpers_have_users_in_the_package(path):
    private = [node.name for node in ast.parse(path.read_text(), filename=str(path)).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    unused = [name for name in private if name not in PACKAGE_REFERENCED]
    assert not unused, f"{path.name} defines private helpers no package code uses: {unused}"


def _imported_modules(path: Path) -> set[str]:
    """Dotted names of the modules a source file imports; '.' for its own package."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." if node.level else node.module)
    return modules


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_core_imports_only_numpy_and_the_standard_library(path):
    allowed = {".", "numpy", PACKAGE.name, *sys.stdlib_module_names}
    modules = _imported_modules(path)
    roots = {module if module == "." else module.split(".")[0] for module in modules}
    assert roots <= allowed, f"{path.name} imports {roots - allowed}"
    # numpy's private modules, such as numpy._core.multiarray, move between releases
    private = [module for module in modules
               if module.split(".")[0] == "numpy" and any(part.startswith("_") for part in module.split("."))]
    assert not private, f"{path.name} imports private numpy modules {private}"


def test_flow_layer_imports_only_public_generators():
    # the flow works on coefficients; the matrix route and its helpers belong to the audit
    imports = [node for node in ast.walk(ast.parse((PACKAGE / "brachistochrone.py").read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    package = {node.module or alias.name for node in imports
               if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    private = [alias.name for node in imports for alias in node.names if alias.name.startswith("_")]
    assert package <= {"generators"}, f"brachistochrone.py imports package modules {package - {'generators'}}"
    assert not private, f"brachistochrone.py imports private names {private}"


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
