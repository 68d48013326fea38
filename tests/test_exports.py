"""Every exported name resolves: a deleted function must not linger in a
module's __all__ or in the package's re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blockseq

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(blockseq.__path__)
                    if not info.name.startswith("_"))


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"blockseq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_exist():
    tree = ast.parse(Path(blockseq.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        source = importlib.import_module(f"blockseq.{node.module}")
        for alias in node.names:
            if not hasattr(source, alias.name):
                missing.append(f"{node.module}.{alias.name}")
            elif not hasattr(blockseq, alias.asname or alias.name):
                missing.append(alias.asname or alias.name)
    assert missing == []
