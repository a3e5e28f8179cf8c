#!/usr/bin/env python3
"""Count the logical lines of the package and of the data builder.

A logical line is a source line that holds code: it is not blank, not
only a comment, and not part of a docstring (the string literal that
opens a module, class or function). The script prints the count of each
file of src/anosurf/*.py and of tools/build_data.py, then their total.

Run from the repository root:  python tools/loc.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = [*sorted((ROOT / "src" / "anosurf").glob("*.py")), ROOT / "tools" / "build_data.py"]
# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def logical_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    total = 0
    for path in FILES:
        count = logical_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(ROOT).as_posix()}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
