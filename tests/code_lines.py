"""Count the code lines of the package's modules: every line that holds a
token of code, leaving out docstrings, comments and blank lines.

A line of a statement that spans several lines counts once per line, and so
does each line of a string that is not a docstring.  A docstring is a string
literal that stands alone as the first statement of a module, class or
function.

    python tests/code_lines.py [DIR]

prints one ``module count`` line per ``*.py`` file of DIR (default: the
package, ``src/spinfridge``), by name, then ``total count``.  The name does
not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinfridge"
# the tokens that are no code: a comment, line ends, and the indent changes
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of each docstring of the source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of the source that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(path.stem, count)
    print("total", total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
