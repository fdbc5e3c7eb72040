"""List the statements of the library that a pytest run never executes.

    python3 scripts/line_trace.py [pytest arguments]

Runs pytest in this process under ``sys.settrace``, with any arguments
passed through, then prints ``file:line: source`` for each statement of
``src/lkareid/*.py`` that never ran, and a count.  A statement is an
``ast`` statement node other than a ``def`` or ``class`` header, an
import, a ``global`` or ``nonlocal`` declaration, or a string on its own
(a docstring); statements that start on one line count as one, and a
compound statement (``if``, ``for``, ``try`` ...) ran if a line of its
header did.  Lines run in a child process are not seen.
The exit status is pytest's.  Standard library only.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "lkareid"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(source):
    """{first line: the lines any of which running means it ran} for the
    statements of a module's source, as the module docstring counts them."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found[node.lineno] = range(node.lineno, last + 1)
    return dict(sorted(found.items()))


def trace(pytest_args):
    """pytest's exit status, and {library file: lines that ran}."""
    hits = {str(path): set() for path in sorted(LIBRARY.glob("*.py"))}
    by_name = {}

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(os.path.realpath(name))
        return local if by_name[name] is not None else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main():
    status, hits = trace(sys.argv[1:])
    total = missed = 0
    for name, ran in hits.items():
        path = Path(name)
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, span in statements(source).items():
            total += 1
            if ran.isdisjoint(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements in src/lkareid never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
