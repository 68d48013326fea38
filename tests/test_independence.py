"""The three generators that `verify` compares stay independent, as their
module docstrings claim: the oracle in `words` imports nothing from the
window doubling or the morphism, and those two take only `PatternSpec`
from `words`, so a bug in one leg cannot reach another through an
import."""

import ast
from pathlib import Path

import pytest

import blockseq

PACKAGE = Path(blockseq.__file__).parent


def package_imports(source: str) -> dict:
    """{module of the package: names imported from it} in `source`.  A
    whole-module import is recorded as "*", and a name imported from the
    package itself, which re-exports every module, under ""."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").partition(".")[0] == "blockseq":
                module = node.module.partition(".")[2]
            else:
                continue
            module = module.partition(".")[0]
            if module:
                found.setdefault(module, set()).update(a.name for a in node.names)
            else:  # `from . import x`: a module or a re-export
                for alias in node.names:
                    if (PACKAGE / f"{alias.name}.py").exists():
                        found.setdefault(alias.name, set()).add("*")
                    else:
                        found.setdefault("", set()).add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "blockseq":
                    found.setdefault(rest.partition(".")[0], set()).add("*")
    return found


def module_imports(name: str) -> dict:
    return package_imports((PACKAGE / f"{name}.py").read_text())


def test_package_imports_sees_every_form():
    source = "\n".join([
        "import numpy as np",
        "from .words import PatternSpec, a_prefix",
        "from . import windows",
        "from blockseq.morphism import build_morphism",
        "import blockseq.series",
        "from blockseq import generate",
        "def f():",
        "    from .structure import classify_range",
    ])
    assert package_imports(source) == {
        "words": {"PatternSpec", "a_prefix"},
        "windows": {"*"},
        "morphism": {"build_morphism"},
        "series": {"*"},
        "structure": {"classify_range"},
        "": {"generate"},
    }


def test_oracle_imports_neither_generator():
    imports = module_imports("words")
    assert not {"windows", "morphism", ""} & set(imports), imports


@pytest.mark.parametrize("name, other", [("windows", "morphism"),
                                         ("morphism", "windows")])
def test_generators_take_only_the_pattern_from_words(name, other):
    imports = module_imports(name)
    assert imports.get("words") == {"PatternSpec"}, imports
    assert not {other, ""} & set(imports), imports
