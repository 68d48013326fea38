"""Every exported name resolves and every import is used: a deleted
function must not linger in a module's __all__, in the package's
re-exports, or as an import nothing references."""

import ast
import importlib
import inspect
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


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(
    p for p in Path(blockseq.__file__).parent.glob("*.py")
    if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    """No module keeps an import it never references; __init__ imports
    only to re-export."""
    assert _unused_imports(path) == []


# Re-exports that no module of the package references, and why each stays.
UNREFERENCED_EXPORTS = {
    # the scalar oracle the tests judge every generator against
    "a_value",
    # the vectorized oracle at any indices, which the tests judge
    # `a_prefix` and the generators against (`series` no longer samples
    # with it: it checks its window whole with recursion_mismatch)
    "a_batch",
    # called by the benchmark's set-up snippet and the README tour
    "functional_equation_residual",
    # the block check of an array in memory, in the README tour; the
    # `blocks` command checks its generated chunks with classify_chunks
    "classify_range",
}


def test_every_reexport_has_a_caller_in_the_package():
    """Each name the package re-exports is referenced, as a name or an
    attribute, by some module other than __init__; the documented
    exceptions above are exactly the ones that are not."""
    package = Path(blockseq.__file__).parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name
                for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    referenced = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert exported - referenced == UNREFERENCED_EXPORTS


# Names of the `bfile`/`table` chunk cut, which `words.indexed_rows` owns.
CUT_NAMES = {"TEMPLATE_DIGITS"}


def test_only_words_names_the_row_chunk_cut():
    """No module but `words` names TEMPLATE_DIGITS, as a name, an
    attribute or an import, so the cut that `indexed_rows` makes is
    decided in one place."""
    package = Path(blockseq.__file__).parent
    named = set()
    for path in package.glob("*.py"):
        if path.name == "words.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            if name in CUT_NAMES:
                named.add(f"{path.name}:{node.lineno}: {name}")
    assert named == set()


# Public generator functions of the library layers, and why each stays.
GENERATOR_EXPORTS = {
    # streams the bfile/table text a chunk at a time
    "words.indexed_rows",
}


def test_no_public_function_of_a_library_layer_is_a_generator():
    """The benchmark tracer times each public function's call, which for
    a generator function is only the generator's creation, not its work:
    so no public function of `words`, `windows`, `morphism`, `structure`
    or `series` is one, except the documented text stream."""
    found = set()
    for name in ("words", "windows", "morphism", "structure", "series"):
        module = importlib.import_module(f"blockseq.{name}")
        for attr, value in vars(module).items():
            if (inspect.isgeneratorfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found.add(f"{name}.{attr}")
    assert found == GENERATOR_EXPORTS
