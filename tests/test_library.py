"""The library is what the commands run.

Every name in a ``src/neseek`` module's ``__all__`` is used by
``src/neseek`` code outside its own definition; a name only the tests
use belongs with the tests.  The one exception is the documented
reference loop, which the tests compare the stacked simulation with.
Uses are found in the syntax tree: a name read or an attribute looked
up, so neither a docstring nor an import alone counts.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "neseek"

# the per-agent reference loop, its read gate, and the stacked
# simulation and record it is compared in (README, "Library layout")
REFERENCE_LOOP = {"simulate_distributed", "NeighborView", "simulate", "Trajectory"}


def public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def references(tree):
    """(name defined or None, names used) of each top-level statement of ``tree``."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        yield owner, used


def unused_public_names(sources):
    """``module.name`` of each public name no other code of ``sources`` uses."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses = [(module, owner, used) for module, tree in trees.items()
            for owner, used in references(tree)]
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in public_names(tree)
            if not any(name in used for m, owner, used in uses
                       if (m, owner) != (module, name))]


def test_every_public_name_is_used_by_the_library():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unused = [name for name in unused_public_names(sources)
              if name.split(".")[1] not in REFERENCE_LOOP]
    assert unused == []


def test_reference_loop_is_public_in_sim():
    tree = ast.parse((PACKAGE / "sim.py").read_text())
    assert REFERENCE_LOOP <= set(public_names(tree))


def test_finder_sees_a_name_only_its_tests_use():
    # recursion, a docstring and an import do not count as uses
    sources = {
        "a": '__all__ = ["f", "g"]\n'
             'def f(n):\n    return f(n - 1) if n else g()\n'
             'def g():\n    return 0\n',
        "b": '"""f is documented here."""\nfrom .a import f\n',
    }
    assert unused_public_names(sources) == ["a.f"]
