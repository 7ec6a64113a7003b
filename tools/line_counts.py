"""Count the code, docstring, comment and blank lines of Python modules.

Each line falls in exactly one class, tested in this order:

- blank: whitespace only;
- docstring: inside a module, class or function docstring;
- comment: holds a comment token and nothing else;
- code: the rest.

Usage: python tools/line_counts.py [PATH ...]   (default: src/mtfade)

A directory stands for the *.py files directly in it.  One row is
printed per module, then one for the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The four line counts of one module's source."""
    lines = source.splitlines()
    docs = _docstring_lines(ast.parse(source))
    comment, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, text in enumerate(lines, 1):
        if not text.strip():
            kind = "blank"
        elif number in docs:
            kind = "docstring"
        elif number in comment and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> None:
    paths = []
    for arg in argv or ["src/mtfade"]:
        p = Path(arg)
        paths.extend(sorted(p.glob("*.py")) if p.is_dir() else [p])
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}" + "".join(f"{k:>10}" for k in KINDS))
    for path in paths:
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path):<32}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'total':<32}" + "".join(f"{total[k]:>10}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
