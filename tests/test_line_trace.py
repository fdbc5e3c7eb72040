"""scripts/line_trace.py, loaded by path from the checkout, counts the
statements of a small file as its docstring says."""
from conftest import load_script

SOURCE = '''"""Module docstring."""
import os
from sys import argv

LIMIT = 3


class Box:
    """Class docstring."""

    size: int = 2

    def grow(self, n):
        """Method docstring."""
        global LIMIT
        if (n >
                LIMIT):
            raise ValueError(
                "too big"
            )
        for _ in range(n): self.size += 1
        try:
            return self.size
        finally:
            pass
'''


def test_statements_skips_headers_imports_declarations_and_docstrings():
    statements = load_script("line_trace").statements(SOURCE)
    assert {first: list(span) for first, span in statements.items()} == {
        5: [5],  # LIMIT = 3
        11: [11],  # size: int = 2
        16: [16, 17],  # the if's two header lines
        18: [18, 19, 20],  # the raise, over three lines
        21: [21],  # a one-line for, and the statement in its body
        22: [22],  # try:
        23: [23],
        25: [25],  # pass
    }
