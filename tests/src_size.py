"""The size of src/, each line counted once as code, docstring, comment or blank.

    python tests/src_size.py [PACKAGE_DIR]    # one row per module, then the total

PACKAGE_DIR defaults to this checkout's src/tridephase; another one counts,
say, a parent commit's copy made by `git archive` or `git worktree`.

A blank line holds only white space, inside a docstring too.  Any other
line is a docstring line if it is part of a string literal that `ast` reads
as the docstring of a module, class or function, and a comment line if it
holds a comment and no other token (`tokenize`).  Every other line is code,
a line that mixes code and a trailing comment included.  So the four counts
of a file sum to its lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tridephase"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(source: str) -> set[int]:
    """The line numbers, from 1, of every docstring in source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def comment_lines(source: str) -> set[int]:
    """The line numbers of the lines whose only token is a comment."""
    comments, others = set(), set()
    ignored = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in ignored:
            others.update(range(token.start[0], token.end[0] + 1))
    return comments - others


def line_kinds(source: str) -> dict[str, int]:
    """code, docstring, comment and blank lines of one module's source."""
    docstrings = docstring_lines(source)
    comments = comment_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            kind = "blank"
        elif number in docstrings:
            kind = "docstring"
        elif number in comments:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def sizes(src: Path = SRC) -> dict[str, dict[str, int]]:
    """File name -> its line kinds, for every module of src, and "total"."""
    table = {path.name: line_kinds(path.read_text()) for path in sorted(src.glob("*.py"))}
    table["total"] = {kind: sum(row[kind] for row in table.values()) for kind in KINDS}
    return table


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    print(f"| file | lines | {' | '.join(KINDS)} |")
    print("|---|---:|" + "---:|" * len(KINDS))
    for name, row in sizes(Path(args[0]) if args else SRC).items():
        cells = " | ".join(f"{row[kind]:,}" for kind in KINDS)
        print(f"| {name} | {sum(row.values()):,} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
