"""The code-line counter and the pair ratios of scripts/bench.py, which give
every ``src_code_lines`` figure and every bench ratio the project records."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


class TestCodeLines:
    def test_docstrings_comments_and_blank_lines_are_not_counted(self):
        source = '''"""The module docstring,
over two lines."""

# a comment
import os  # a comment after code: the line counts


class A:
    """The class docstring."""

    def f(self):
        """The function docstring,
        over two lines."""
        # a comment
        return os.sep


async def g():
    """The docstring of an async function."""
    return 2
'''
        # import, class, def, return, async def, return
        assert bench.code_lines(source) == 6

    def test_a_call_split_over_three_lines_counts_three(self):
        assert bench.code_lines("print(1,\n      2,\n      3)\n") == 3

    def test_a_string_that_is_not_a_docstring_counts(self):
        # a string after the first statement, and one assigned over two lines
        source = ('def f():\n    x = 1\n    """not a docstring"""\n    return x\n'
                  'TEXT = """one\ntwo"""\n')
        assert bench.code_lines(source) == 6


def test_pair_ratios_give_the_median_quartiles_and_wins():
    ratios = bench.pair_ratios([1.0, 2.0, 4.0, 5.0], [0.5, 3.0, 4.0, 4.0])
    assert ratios["per_pair"] == [0.5, 1.5, 1.0, 0.8]
    assert ratios["median"] == pytest.approx(0.9)
    assert ratios["quartiles"] == pytest.approx([0.575, 1.375])
    # a tie (ratio 1) is not a win
    assert (ratios["wins"], ratios["pairs"]) == (2, 4)
