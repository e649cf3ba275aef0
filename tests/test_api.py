"""The public surface: every export resolves, and every public name is exported."""

import ast
import inspect

import pytest

import oscsym
from oscsym import algebra, families, fock, phase_space

MODULES = {m.__name__: m for m in (families, algebra, fock, phase_space)}


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
    tree = ast.parse(inspect.getsource(oscsym))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = MODULES[f"oscsym.{node.module}"]
        assert node.level == 1
        assert [a.name for a in node.names if a.name not in module.__all__] == []
