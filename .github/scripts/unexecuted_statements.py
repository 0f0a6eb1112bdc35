"""List the statements of src/qcompare that no Tier-1 test executes.

Runs the Tier-1 suite in this process through ``pytest.main`` under a line
tracer (``sys.settrace`` and ``threading.settrace``, so lines run on other
threads count too) and prints ``path:line scope`` for each statement
of the package that never ran, where ``scope`` is the enclosing function's
dotted name, ``__main__`` inside an ``if __name__ == "__main__":`` guard, or
``<module>``.  A statement runs when one of its own lines does, or any
statement nested in it.  Lines that run only in a subprocess, such as the
entry points, are listed too: the tracer sees this process alone.  Those are
the ``SUBPROCESS_ONLY`` scopes; any other unexecuted statement is marked
``NOT ALLOWED`` and makes the run exit 1.  Otherwise it exits with pytest's
status.  The tracer makes the run about 1.5 times as long, so this is no
Tier-1 test.  Run it as

    python .github/scripts/unexecuted_statements.py [pytest arguments]
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "qcompare"
# (file of the package, scope) pairs that only a subprocess runs; scope None is the whole file.
SUBPROCESS_ONLY = {("__main__.py", None), ("cli.py", "run"), ("cli.py", "__main__")}


def _line_tracer(lines: set[int]):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def _tracer(hits: dict[Path, set[int]]):
    """A trace function that adds to ``hits`` the lines run in each file of the package."""
    tracers = {}  # co_filename -> its line tracer, or None outside the package

    def trace(frame, event, arg):
        filename = getattr(getattr(frame, "f_code", None), "co_filename", None)
        if not filename:  # a frame without a file, as at interpreter shutdown
            return None
        if filename not in tracers:
            path = Path(os.path.realpath(filename))
            tracers[filename] = (_line_tracer(hits.setdefault(path, set()))
                                 if path.is_relative_to(PACKAGE) else None)
        return tracers[filename]
    return trace


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _nested(node: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside ``node``: its blocks, ``except`` and ``case`` ones too."""
    blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
    blocks += [inner.body for inner in [*getattr(node, "handlers", []),
                                        *getattr(node, "cases", [])]]
    return [child for block in blocks for child in block]


def _is_main_guard(node: ast.stmt) -> bool:
    """Whether ``node`` is ``if __name__ == "__main__":``."""
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def unexecuted(tree: ast.Module, ran: set[int]) -> list[tuple[int, str]]:
    """First line and scope of the statements of ``tree`` none of whose lines are in ``ran``."""
    missed = []

    def visit(node: ast.stmt, parent: ast.AST, scope: str) -> bool:
        children = _nested(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name if scope in ("<module>", "__main__") else f"{scope}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
        else:
            inner = "__main__" if scope == "<module>" and _is_main_guard(node) else scope
        executed = [visit(child, node, inner) for child in children]  # visit every child
        if _is_docstring(node, parent):
            return False
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        # A compound statement's own lines are its header, up to its first nested statement.
        last = node.end_lineno if not children else max(first, children[0].lineno - 1)
        if any(executed) or ran.intersection(range(first, last + 1)):
            return True
        missed.append((node.lineno, scope))
        return False

    for statement in tree.body:
        visit(statement, tree, "<module>")
    return sorted(missed)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # where pytest reads its configuration: testpaths, and src on the path
    hits = {}
    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    stray = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for line, scope in unexecuted(tree, hits.get(path.resolve(), set())):
            allowed = {(path.name, None), (path.name, scope)} & SUBPROCESS_ONLY
            stray += not allowed
            print(f"{path.relative_to(ROOT)}:{line} {scope}" + ("" if allowed else "  NOT ALLOWED"))
    if stray:
        print(f"{stray} unexecuted statement(s) outside SUBPROCESS_ONLY", file=sys.stderr)
    return int(status) or int(stray > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
