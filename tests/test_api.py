"""The public surface: every export resolves, every public name is exported,
and every exported name and public class member has a caller."""

import ast
import inspect
from pathlib import Path

import pytest

import oscsym
from oscsym import algebra, families, fock, phase_space

MODULES = {m.__name__: m for m in (families, algebra, fock, phase_space)}
ROOT = Path(__file__).resolve().parents[1]
CALLERS = [*sorted((ROOT / "src" / "oscsym").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]


def _public_definitions(module):
    tree = ast.parse(inspect.getsource(module))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = MODULES[name]
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    module = MODULES[name]
    assert _public_definitions(module) - set(module.__all__) == set()


def test_package_reexports_only_listed_names():
    # the package's lazy map: each name once, from a module whose __all__ lists it
    assert oscsym.__all__ and len(set(oscsym.__all__)) == len(oscsym.__all__)
    for module, names in oscsym._EXPORTS.items():
        module = MODULES[f"oscsym.{module}"]
        assert [name for name in names if name not in module.__all__] == []
        assert all(getattr(oscsym, name) is getattr(module, name) for name in names)


class _References(ast.NodeVisitor):
    """Every Name, Attribute and import alias, except inside the definition it names
    and the target of a field declaration; ``attributes`` keeps only the attributes
    read as ``x.name``."""

    def __init__(self):
        self.names, self.attributes, self._inside = set(), set(), []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def visit_AnnAssign(self, node):
        # a field declaration is not a use of the field: skip the target
        self.visit(node.annotation)
        if node.value is not None:
            self.visit(node.value)

    def _add(self, name):
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        if isinstance(node.ctx, ast.Load) and node.attr not in self._inside:
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._add(node.name)


def _references():
    refs = _References()
    for path in CALLERS:
        refs.visit(ast.parse(path.read_text()))
    return refs


def _public_members(module):
    """(class, member) for every public method, property and field of the exported classes."""
    tree = ast.parse(inspect.getsource(module))
    return [(node.name, item.name if isinstance(item, ast.FunctionDef) else item.target.id)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in module.__all__
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            or isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller(name):
    # a public name stays only when the package, bench or a demo uses it
    used = _references().names
    assert [n for n in MODULES[name].__all__ if n not in used] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_member_has_a_caller(name):
    # a member is used only when read as an attribute: a local variable of the
    # same name, a keyword argument or a string does not count
    used = _references().attributes
    assert [m for m in _public_members(MODULES[name]) if m[1] not in used] == []
