"""Statements of ``src/neseek`` functions that no command reaches.

Runs the tier-1 tests in this process under ``sys.settrace`` and lists
each statement inside a ``src/neseek`` function (a docstring is not a
statement here) that never ran inside a ``neseek.cli.main`` call or
while ``neseek.cli`` was being imported.  A statement runs when any
line of it does.  Such a statement is one that only the tests call,
or a check that some earlier check makes unreachable from the command
line.  Commands the tests start in a subprocess are not seen.

The count is the last line of the output.  CI fails when it exceeds
the ceiling in ``.github/workflows/tier1.yml``, which only goes down;
this script's own exit status does not depend on it.  The tracer's own
allocations count against the tests that bound memory with
tracemalloc, so a test may fail here that passes without the tracer;
the tests' exit status is printed and does not change this script's.

Usage, from anywhere in a checkout:

    python tests/command_reach.py
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "neseek"
CLI = str(PACKAGE / "cli.py")


def _docstring(node):
    """The docstring statement of a function or class ``node``, else None."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            return first
    return None


def function_statements(tree):
    """(first line, last line) of each statement inside a function of ``tree``.

    Docstrings are left out, and so are ``global`` and ``nonlocal``,
    which run no code of their own.
    """
    found = []

    def visit(node, in_function):
        docstring = _docstring(node)
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and child is not docstring \
                    and not isinstance(child, (ast.Global, ast.Nonlocal)):
                first = min([child.lineno] + [d.lineno for d in getattr(
                    child, "decorator_list", [])])
                found.append((first, child.end_lineno))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def run_tests_traced():
    """Run tier-1 under the tracer: (pytest's exit status, {file: lines run})."""
    files = {str(p) for p in PACKAGE.glob("*.py")}
    ran = {f: set() for f in files}
    active = [0]  # depth of main calls and of the neseek.cli import

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def entry(frame, event, arg):
        lines(frame, event, arg)
        if event == "return":
            active[0] -= 1
        return entry

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename == CLI and code.co_name in ("main", "<module>"):
            active[0] += 1
            return entry
        if active[0] and code.co_filename in files:
            return lines
        return None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        import neseek.cli  # noqa: F401  (its import counts as a command's)
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(status), ran


def main():
    os.chdir(ROOT)
    status, ran = run_tests_traced()
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        done = ran[str(path)]
        for first, last in function_statements(ast.parse("\n".join(source))):
            if not any(line in done for line in range(first, last + 1)):
                unreached.append(f"{path.relative_to(ROOT)}:{first}: "
                                 f"{source[first - 1].strip()}")
    print(f"tier-1 tests under the tracer exited {status}")
    print("\n".join(unreached))
    print(f"{len(unreached)} statements in src/neseek functions no command reaches")


if __name__ == "__main__":
    main()
