"""scripts/bench.py counts src/ code lines as the simplicity tally reads them."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps its line


# a comment-only line
class A:
    """Class docstring."""

    x = """a multi-line string
    that is not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (1 +
                2)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, x = (2 lines), def, return (2 lines)
    assert bench.code_lines(SOURCE) == 7
