"""Count the lines of Python source files, as raw lines and as code lines.

    python tools/src_lines.py src/abdtrack/*.py

Prints one line for the files together: the raw total, as ``wc -l``
counts it, and the code lines, which leave out docstrings, comments and
blank lines.  A line counts as code if any token on it, or any string
spanning it, is code; the docstrings are the string statements that
``ast`` finds first in a module, class or function body.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one file's source."""
    docstrings = {
        (first.lineno, first.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _BODIES) and node.body
        for first in node.body[:1]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    }
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start not in docstrings:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", type=Path)
    raw = code = 0
    for path in ap.parse_args(argv).files:
        r, c = count(path.read_text())
        raw, code = raw + r, code + c
    print(f"{raw} raw lines, {code} code lines (without docstrings, comments or blank lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
