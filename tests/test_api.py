"""Every public name of the layer modules has a user outside its own definition.

A name in a module's ``__all__`` counts as used when some ``ast.Name`` or
``ast.Attribute`` in the package, the demos or the bench scripts refers to
it outside its own ``def``/``class``. The ``__all__`` strings and the
re-exports in ``__init__`` are not references, and neither are the tests:
API that only its own tests call is dead and should be deleted.
"""
import ast
from pathlib import Path

import pytest

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
