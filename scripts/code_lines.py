"""Code lines and defaulted parameters per module of ``src/cstar_angles``, and their totals.

A code line holds at least one token that is not a comment and not part of
a docstring (the first statement of a module, class or function body when
it is a string); blank lines hold none.  Docstrings are found with ``ast``
and the other tokens with ``tokenize``.

The second count is of the parameters that have a default value on public
functions and methods: module-level functions whose names do not start with
an underscore, and the methods of module-level classes whose names do not
start with one, the methods' own names likewise, plus ``__init__``.  Run
from anywhere:

    python scripts/code_lines.py

It prints one line per module (code lines, then defaulted parameters) and
the totals, and exits 0.
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


def defaulted_parameters(source: str) -> int:
    """The number of parameters with a default value on one module's public functions and methods."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions.extend(
                method for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return sum(
        len(f.args.defaults) + sum(d is not None for d in f.args.kw_defaults)
        for f in functions
        if f.name == "__init__" or not f.name.startswith("_")
    )


def main() -> int:
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    counts = {name: (code_lines(s), defaulted_parameters(s)) for name, s in sources.items()}
    width = max(map(len, counts))
    print(f"{'module':<{width}} {'lines':>6} {'defaulted':>9}")
    for name, (lines, params) in counts.items():
        print(f"{name:<{width}} {lines:>6,} {params:>9}")
    lines, params = (sum(column) for column in zip(*counts.values()))
    print(f"{'total':<{width}} {lines:>6,} {params:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
