"""Code lines per module of ``src/cstar_angles``, and their total.

A code line holds at least one token that is not a comment and not part of
a docstring (the first statement of a module, class or function body when
it is a string); blank lines hold none.  Docstrings are found with ``ast``
and the other tokens with ``tokenize``.  Run from anywhere:

    python scripts/code_lines.py

It prints one line per module and the total, and exits 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cstar_angles"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of a module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
