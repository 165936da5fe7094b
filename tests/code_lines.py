"""Count the code lines and code tokens of src/idak and of tests/: the
tokens outside docstrings and comments, and the lines that hold one.

A line counts once if any token on it is code, so a multi-line expression
counts each of its lines, and a line that is only a docstring, a comment
or blank counts none.  A docstring is the string that opens a module, a
class or a function body, as ast.get_docstring reads it; code on its
first line, as in `def f(): "doc"`, still counts.  Tokens are counted the
same way, less line breaks and indentation, so an edit that drops a
parameter or an argument shows even where no line goes.  From Python 3.12
the tokenizer splits an f-string into several tokens, where 3.11 reads
one, so token totals differ between Python versions; line counts do not.
`python tests/code_lines.py`, run from the repository root, prints both
counts per module of src/idak and in total, then per file of tests/ and in
total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "idak"
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


def code_tokens(source):
    """The tokens of the Python source text outside docstrings and comments."""
    docstrings = _docstring_lines(ast.parse(source))
    return [token for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type not in _NOT_CODE
            and not (token.type == tokenize.STRING and token.start[0] in docstrings)]


def count(source):
    """The number of code lines in the Python source text."""
    return len({line for token in code_tokens(source)
                for line in range(token.start[0], token.end[0] + 1)})


def main():
    for heading, directory in (("module", SRC), ("\ntest file", TESTS)):
        total_lines = total_tokens = 0
        print(f"{heading}\tcode lines\tcode tokens")
        for path in sorted(directory.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines, tokens = count(source), len(code_tokens(source))
            total_lines += lines
            total_tokens += tokens
            print(f"{path.relative_to(directory.parent)}\t{lines}\t{tokens}")
        print(f"total\t{total_lines}\t{total_tokens}")


if __name__ == "__main__":
    sys.exit(main())
