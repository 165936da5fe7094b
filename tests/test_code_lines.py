"""tests/code_lines.py, the counter of the code lines and code tokens of src/ and tests/,
on a source whose counts are known."""

import code_lines

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment


def area(radius):
    """A function docstring."""

    # the next expression spans three lines
    return (
        math.pi * radius ** 2
    )


class Circle: """a docstring after code on its line"""
'''


def test_the_counter_counts_code_lines_outside_docstrings_and_comments():
    # import, def, the three lines of the return and the class line
    assert code_lines.count(SOURCE) == 6



def test_the_counter_counts_code_tokens_outside_docstrings_and_comments():
    # import math (2), the def line (6), the return's three lines (10) and
    # the class line (3), whose docstring is not code
    assert len(code_lines.code_tokens(SOURCE)) == 21
