#!/usr/bin/env python3
"""Count the code lines of Python modules: the lines holding a token other
than a comment, NL, NEWLINE, INDENT or DEDENT, minus the docstrings of each
module, class and function (their first statement, when it is a string
literal, found by ast).  Blank lines, comments and docstrings do not count;
a line with code and a trailing comment does.

    python3 scripts/code_lines.py [path ...]   # default: src/wsgaps

Each path is a .py file or a directory searched for *.py.  Prints one
`count<TAB>module` row per module, sorted by path, then `count<TAB>total`.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(a) for a in argv] or [root / "src" / "wsgaps"]
    files = sorted(f.resolve() for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p]))
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count}\t{f.relative_to(root) if f.is_relative_to(root) else f}")
    print(f"{total}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
