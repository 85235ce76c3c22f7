"""Count the code lines of Python files: no comments, docstrings or blank lines.

A line counts when a token other than a comment, a newline or an indent
starts or runs on it; the module, class and function docstrings (found
with ``ast``) count nothing. Only the standard library is used.

    python tools/code_lines.py src/ghostsim
    python tools/code_lines.py src/ghostsim/optics.py

Prints one count per file and, for more than one file, their total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one Python file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIPPED or tok.start[0] in docs:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, args):
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    if len(files) > 1:
        print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
