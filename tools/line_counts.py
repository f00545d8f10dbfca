"""Count the lines of the library's source, by kind.

    python3 tools/line_counts.py [DIR]

DIR defaults to src/magari4 beside this script's folder.  Every line of
every .py file under DIR is one of four kinds, tested in this order:

- blank: an empty or all-whitespace line, also inside a string;
- docstring: inside a module, class or function docstring (found by ast);
- code: any other line that a token other than a comment touches (found by
  tokenize), so every line of a multi-line string or expression counts;
- comment: a line that holds only a comment.

The total is printed first, then the four kinds, one per line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> dict[str, int]:
    """The line count of each kind in one file's source text."""
    lines = source.splitlines()
    docstring = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    counts["total"] = len(lines)
    for number, line in enumerate(lines, 1):
        kind = ("blank" if not line.strip() else "docstring" if number in docstring
                else "code" if number in code else "comment" if number in comment else None)
        if kind is None:
            raise ValueError(f"line {number} is of no kind: {line!r}")
        counts[kind] += 1
    return counts


def count_tree(root: Path) -> dict[str, int]:
    """The summed counts of every .py file under root."""
    counts = dict.fromkeys(KINDS, 0)
    for path in sorted(root.rglob("*.py")):
        for kind, n in count_source(path.read_text(encoding="utf-8")).items():
            counts[kind] += n
    return counts


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "magari4"
    for kind, n in count_tree(root).items():
        print(f"{kind:<9} {n:>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
