"""The test toolkit stays shared: support.py is the one module under
tests/ that defines the pattern enumerator, the grid, the golden
prefixes and the digit string, and the one that starts tracemalloc, and
no test module imports another."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SHARED_VALUES = re.compile(r"GRID|RS_S\w*|ZW_\w*")
# the toolkit's function names and those its former copies used
SHARED_FUNCTIONS = {"patterns", "_patterns", "all_patterns", "as_str"}


def violations(source: str) -> list:
    """Each line of `source` that does what only support.py may do."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Import):
            found += [(line, f"imports {alias.name}") for alias in node.names
                      if alias.name.startswith("test_")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("test_") or (module == "tracemalloc" and any(
                    alias.name == "start" for alias in node.names)):
                found.append((line, f"imports from {module}"))
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "start"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "tracemalloc"):
                found.append((line, "starts tracemalloc"))
            # width-k words over an alphabet, as the enumerator lists them
            if any(keyword.arg == "repeat" for keyword in node.keywords) and \
                    getattr(func, "attr", getattr(func, "id", "")) == "product":
                found.append((line, "enumerates patterns"))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if SHARED_VALUES.fullmatch(node.id):
                found.append((line, f"assigns {node.id}"))
        elif isinstance(node, ast.FunctionDef) and node.name in SHARED_FUNCTIONS:
            found.append((line, f"defines {node.name}"))
    return found


@pytest.mark.parametrize("path", sorted(
    p for p in TESTS.glob("*.py") if p.name != "support.py"),
    ids=lambda p: p.stem)
def test_module_uses_the_shared_toolkit(path):
    assert violations(path.read_text()) == []


def test_guard_sees_each_violation():
    for source in [
        "from test_acceptance import GRID",
        "import test_cli",
        "import tracemalloc\ntracemalloc.start()",
        "from tracemalloc import start",
        "GRID = []",
        "RS_S3 = ''",
        "ZW_PREFIX64: str = ''",
        "def all_patterns(m, k):\n    return []",
        "def as_str(values):\n    return ''",
        "import itertools\nitertools.product(range(3), repeat=2)",
    ]:
        assert len(violations(source)) == 1, source


def test_support_holds_what_the_guard_forbids():
    """The guard is not vacuous: support.py itself defines each shared
    thing and starts tracemalloc."""
    found = {what for _, what in violations((TESTS / "support.py").read_text())}
    assert {"assigns GRID", "assigns RS_S3", "assigns ZW_PREFIX64",
            "defines patterns", "defines as_str", "starts tracemalloc",
            "enumerates patterns"} <= found
