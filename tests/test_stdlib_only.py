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
