"""List the statements of loglosslab that a pytest run never executes.

Usage::

    PYTHONPATH=src python tests/line_trace.py [pytest args]

Runs pytest in this process (with the given arguments, or the default suite)
under ``sys.settrace`` and ``threading.settrace``, recording the lines run in
files under ``src/loglosslab`` and nothing else.  Then, for each module, it
prints the statements that never ran, by line, as ``ast`` finds them with
docstrings skipped.  A compound statement counts as run when its header or its
first body statement ran, since Python reports no line of its own for some
headers (``try:``).  Only the standard library is used; pytest does not
collect this file.

CI runs it as a gate over the whole suite with ``-k "not TestScale"``: the
step fails if it lists any statement, in any module, but one, matched by
its text: ``ratedistortion.py``'s "a forward row vanished" raise.
Tracing slows the suite (the full suite takes about twice as long) and adds
allocations of its own, so time and held-bytes bounds, such as those of the
``TestScale`` classes, may fail under it; hence that exclusion.  The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "loglosslab"


def statements(source: str) -> dict[int, tuple[int, ...]]:
    """First line of each statement -> the lines whose execution shows it ran."""
    found: dict[int, tuple[int, ...]] = {}

    def visit(body: list[ast.stmt]) -> None:
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring, or a bare string that compiles to nothing
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            inner = [getattr(node, name) for name in ("body", "orelse", "finalbody",
                                                      "handlers")
                     if getattr(node, name, None)]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # The body runs at call time; only the definition is this statement's.
                lines = tuple(range(start, max(node.body[0].lineno, start + 1)))
            elif inner:
                first = inner[0][0]
                lines = tuple(range(start, first.lineno)) + (first.lineno,)
            else:
                lines = tuple(range(start, node.end_lineno + 1))
            found[node.lineno] = lines
            for block in inner:
                if block and isinstance(block[0], ast.ExceptHandler):
                    for handler in block:
                        visit(handler.body)
                else:
                    visit(block)
            if isinstance(node, ast.Match):
                for case in node.cases:
                    visit(case.body)

    visit(ast.parse(source).body)
    return found


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        hit = ran.get(str(path), set())
        missed = [first for first, lines in sorted(statements(source).items())
                  if not hit.intersection(lines)]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(PACKAGE.parent)}: {len(missed)} never ran")
            for line in missed:
                print(f"  {line:5d}  {source.splitlines()[line - 1].strip()}")
    print(f"{total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
