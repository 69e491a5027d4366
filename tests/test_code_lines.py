"""`tools/code_lines.py`, the line count that gates the size of `src/mehler`."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines_tool", _PATH)
code_lines_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines_tool)

SOURCE = '''"""A module docstring,
over two lines."""

# a comment

import math  # a trailing comment


def scaled(x):
    """A function docstring."""

    # a comment in a body
    total = (
        x
        * math.pi
    )
    return total


class Box:
    """A class docstring."""

    size = "a string, not a docstring"
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # counted: import, def, the four lines of the expression, return, class
    # and the class attribute
    assert code_lines_tool.code_lines(SOURCE) == 9


def test_code_lines_of_nothing_but_a_docstring():
    assert code_lines_tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
