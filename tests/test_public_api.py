"""The public API: every exported name exists, and the package exports only public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import levymv

MODULES = [importlib.import_module(f"levymv.{info.name}")
           for info in pkgutil.iter_modules(levymv.__path__)]


def test_every_listed_name_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(levymv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert imports
    for node in imports:
        module = importlib.import_module(f"levymv.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert public is None or alias.name in public, \
                f"levymv imports {alias.name!r}, which {module.__name__}.__all__ does not list"
