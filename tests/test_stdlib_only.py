"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "invgen"


def absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = {(path.name, name) for path in sources for name in absolute_imports(path)}
    assert found, "no absolute imports found at all"
    stray = sorted(
        (file, name) for file, name in found
        if name != "invgen" and name not in sys.stdlib_module_names
    )
    assert stray == [], f"imports outside the standard library: {stray}"


# the package's layers, lowest first: a module imports only modules before it
LAYERS = ("errors", "cycletypes", "bounds", "sampling", "exact", "montecarlo", "cli")
ENTRY_POINTS = {"__init__", "__main__"}  # the package's surface, which may import any layer


def relative_imports(path):
    """Package module names of the relative imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import name
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules - ENTRY_POINTS == set(LAYERS)


def test_imports_follow_the_layers():
    # so the samplers cannot lean on the exact oracle, nor a lower layer on the CLI
    later = []
    for rank, module in enumerate(LAYERS):
        for name in relative_imports(PACKAGE / f"{module}.py"):
            if name in LAYERS and LAYERS.index(name) >= rank:
                later.append((module, name))
    assert later == [], f"imports of a module at or above the importer's layer: {later}"


def test_engine_and_oracle_import_neither_each_other():
    # Monte Carlo and the exact oracle are two of the routes that check each
    # other, so they share only what the element layer below them defines
    for module, other in (("montecarlo", "exact"), ("exact", "montecarlo")):
        assert other not in set(relative_imports(PACKAGE / f"{module}.py")), f"{module} imports {other}"
