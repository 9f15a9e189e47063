"""scripts/bench.py counts src/ code lines as the simplicity tally reads them, and names failing tests."""

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


SUMMARY = """\
FAILED tests/test_x.py::test_printed - AssertionError
.....F.E                                                                 [100%]
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::TestCriterion4::test_example2_exact_rate - A...
FAILED tests/test_acceptance.py::TestCriterion4::test_example4 - AssertionErr...
FAILED tests/test_a.py::test_p[x-1.5]
ERROR tests/test_b.py::test_fixture - RuntimeError: boom - twice
ERROR tests/test_c.py
3 failed, 4 passed, 2 errors in 1.00s
"""


def test_summary_ids_read_the_short_summary_lines():
    # the FAILED line before the summary header is captured output, not a result
    assert bench.summary_ids(SUMMARY) == {
        "failed_ids": [
            "tests/test_acceptance.py::TestCriterion4::test_example2_exact_rate",
            "tests/test_acceptance.py::TestCriterion4::test_example4",
            "tests/test_a.py::test_p[x-1.5]",
        ],
        "error_ids": ["tests/test_b.py::test_fixture", "tests/test_c.py"],
    }
    assert bench.summary_ids("5 passed in 0.10s\n") == {"failed_ids": [], "error_ids": []}
