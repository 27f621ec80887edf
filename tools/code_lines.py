"""Count the code lines of each module of a Python package: lines that
hold code, not counting blank lines, comments, or docstrings (the leading
string of a module, class or function).

    python3 tools/code_lines.py [package directory, default src/invgen]

Prints one `count module` line per module, largest first, then the total.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """Where each docstring in the tree starts, as (line, column)."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token other than a
    comment or a docstring."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/invgen")
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6,} {name}")
    print(f"{sum(counts.values()):6,} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
