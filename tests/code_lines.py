"""Count the code lines of src/idak: lines that hold a token outside
docstrings and comments.

A line counts once if any token on it is code, so a multi-line expression
counts each of its lines, and a line that is only a docstring, a comment
or blank counts none.  A docstring is the string that opens a module, a
class or a function body, as ast.get_docstring reads it; code on its
first line, as in `def f(): "doc"`, still counts.
`python tests/code_lines.py`, run from the repository root, prints the
count per module and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "idak"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers on which a docstring of tree starts or goes on."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """The number of code lines in the Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or (token.type == tokenize.STRING
                                       and token.start[0] in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = count(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{path.relative_to(SRC.parent)}\t{lines}")
    print(f"total\t{total}")


if __name__ == "__main__":
    sys.exit(main())
