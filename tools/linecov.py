"""Print every statement of ``src/bellsim`` that the in-process test suite does not run.

Usage, from anywhere: ``python tools/linecov.py [pytest arguments]``. It runs
pytest in this process, by default as the tier-1 command does, under a
``sys.settrace`` hook that records the lines executed in ``src/bellsim``
(imported from this checkout's ``src``), then lists each statement none of
whose lines ran, with the function or class that holds it. Code that only
runs in a child process, such as ``python -m bellsim.cli``, counts as not run.
Docstrings and the bodies of ``if TYPE_CHECKING:`` are not statements that
run. It needs only the standard library and pytest, and gates nothing: the
exit status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT)]


def statements(tree: ast.Module):
    """Yield ``(first line, last line, scope, node)`` for each statement that runs, outermost first."""
    def visit(body, scope):
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                continue  # a docstring: a function's compiles to no instruction
            yield node.lineno, node.end_lineno, scope, node
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                yield from visit(node.orelse, scope)
                continue
            name = getattr(node, "name", None)  # set on a def or a class
            inner = f"{scope}.{name}" if name and scope else name or scope
            for _, value in ast.iter_fields(node):
                if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                    yield from visit(value, inner)
                elif isinstance(value, list):
                    for handler in value:
                        if isinstance(handler, (ast.excepthandler, ast.match_case)):
                            yield from visit(handler.body, inner)
    yield from visit(tree.body, "")


def main(args: list[str]) -> int:
    import pytest

    files = {str(SRC / "bellsim" / p.name): p for p in sorted((SRC / "bellsim").glob("*.py"))}
    hits = {name: set() for name in files}

    def tracer(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed, total = [], 0
    for name, path in files.items():
        source = path.read_text()
        lines = source.splitlines()
        inside_missed = 0  # last line of the enclosing statement already reported
        for first, last, scope, node in statements(ast.parse(source)):
            total += 1
            if any(line in hits[name] for line in range(first, last + 1)):
                continue
            if first > inside_missed:
                missed.append(f"{path.relative_to(ROOT)}:{first}: {scope or '<module>'}: {lines[first - 1].strip()}")
                inside_missed = last
    print(f"{len(missed)} of {total} statements in src/bellsim not run in process (outermost listed):")
    print("\n".join(missed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
