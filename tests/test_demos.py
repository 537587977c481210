"""The demos' imports from the package resolve, without running the demos."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _ebnarx_imports(path):
    """``(module, name)`` for each name a demo imports from ``ebnarx`` or one
    of its modules, name None for a plain ``import ebnarx...``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "ebnarx":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "ebnarx"]
    return found


def test_every_demo_is_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_imports_resolve(path):
    imports = _ebnarx_imports(path)
    assert imports, f"{path.name} imports nothing from ebnarx"
    missing = []
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module_name}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
