"""The library is what the commands run.

Every name in a ``src/neseek`` module's ``__all__`` is used by
``src/neseek`` code outside its own definition; a name only the tests
use belongs with the tests.  Uses are found in the syntax tree: a name
read or an attribute looked up, so neither a docstring nor an import
alone counts.  The same holds one level down: every default is left
out by some library call, and every property and method is read by the
library.  A module's private names stay its own: no module imports one
from a sibling, and the tests' reference loop imports none either;
``neseek.sim`` imports nothing of the modules that build the loop.  And
every raise names an error type that the CLI gives one exit status.
"""

import ast
import builtins
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "neseek"


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
    assert unused_public_names(sources) == []


def test_finder_sees_a_name_only_its_tests_use():
    # recursion, a docstring and an import do not count as uses
    sources = {
        "a": '__all__ = ["f", "g"]\n'
             'def f(n):\n    return f(n - 1) if n else g()\n'
             'def g():\n    return 0\n',
        "b": '"""f is documented here."""\nfrom .a import f\n',
    }
    assert unused_public_names(sources) == ["a.f"]


# A module's private names are its own: no src/neseek module imports a
# ``_``-prefixed name from a sibling.  A helper two modules need is public.

def private_imports(sources):
    """``module: sibling._name`` of each private name imported from a sibling module."""
    return [f"{module}: " + ".".join(filter(None, (node.module, alias.name)))
            for module, text in sources.items() for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "neseek")
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert private_imports(sources) == []


def test_finder_sees_a_private_name_imported_from_a_sibling():
    # public and standard-library names do not count, wherever they are
    sources = {
        "a": "from .b import f, _g\nfrom _sha2 import sha256\n",
        "b": "def f():\n    from neseek.a import _h\n    from . import _c, d\n",
    }
    assert private_imports(sources) == ["a: b._g", "b: neseek.a._h", "b: _c"]


# The per-agent reference loop in tests/reference_loop.py is an oracle
# for the stacked loop that neseek.synthesis assembles: it builds its own
# rates from the game, plants, exosystems and gains, so it imports
# nothing from neseek.synthesis and no private library name.  And
# neseek.sim runs on the assembled loop alone: it imports nothing of the
# modules that build the loop or read the scenario.

def neseek_imports(text, modules):
    """Each name ``text`` imports from or as ``neseek.<module>`` for one of
    ``modules``, in source order; ``from .x`` reads as ``from neseek.x``."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["neseek" if node.level else None, node.module]))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names
                  if name.split(".")[:2] in [["neseek", m] for m in modules]]
    return found


def test_reference_loop_reuses_nothing_of_the_loop_it_checks():
    text = (TESTS / "reference_loop.py").read_text()
    assert private_imports({"reference_loop": text}) == []
    assert neseek_imports(text, {"synthesis"}) == []


def test_finder_sees_an_import_of_synthesis():
    # a module, a name from it, and the module as a name of the package
    text = ("import neseek.synthesis as s\nfrom neseek.synthesis import _assemble\n"
            "from neseek import synthesis, sim\nfrom neseek.sim import propagate\n")
    assert neseek_imports(text, {"synthesis"}) == [
        "neseek.synthesis", "neseek.synthesis._assemble", "neseek.synthesis"]


LOOP_BUILDERS = {"game", "plant", "synthesis", "scenario"}


def test_sim_runs_on_the_assembled_loop_alone():
    assert neseek_imports((PACKAGE / "sim.py").read_text(), LOOP_BUILDERS) == []


def test_finder_sees_a_relative_import_of_a_loop_builder():
    # a name from a sibling, a sibling as a name of the package, and an
    # absolute import; errors and linalg are not loop builders
    text = ("from .errors import NeseekError\nfrom .game import solve_ne\n"
            "from . import plant, linalg\nimport neseek.scenario\n"
            "def f():\n    from .synthesis import ClosedLoopSystem\n")
    assert neseek_imports(text, LOOP_BUILDERS) == [
        "neseek.game.solve_ne", "neseek.plant", "neseek.scenario",
        "neseek.synthesis.ClosedLoopSystem"]


# Every default and every property or method has a library caller.  A
# default counts as used when some src/neseek call of its function or
# class leaves it out; a call that splats ``*args`` or ``**kwargs`` may
# pass anything and leaves nothing out.  A property or method counts as
# used when src/neseek reads its name as an attribute of that class.

# defaults for input that a scenario file may leave unset, which reaches
# its class through a reader table, not through a call
OUTSIDE_INPUT = {
    # the synthesis section's CARE weights, each optional
    "synthesis.SynthesisWeights": {"observer_q", "observer_r", "stabilizer_q_state",
                                   "stabilizer_q_im", "stabilizer_r"},
    # a cost block's constant and couplings, optional for an agent without neighbors
    "game.LocalCost": {"q_i", "R_ij", "Q_ij"},
    # an agent's perturbations and initial state, zero unless given
    "plant.AgentPlant": {"dA", "dB", "dC", "dP", "x0"},
}

def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _has_default(f):
    """Whether a dataclass field has a default; ``field(repr=False)`` has none."""
    if isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in f.value.keywords)
    return f.value is not None


def signatures(trees):
    """(owner, callee name, parameters, defaulted parameters) of each function and dataclass.

    A method's ``self`` is dropped, and an ``__init__`` is called by its
    class's name.
    """
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                yield from (_function(f"{module}.{fn.name}", fn.name, fn, 0)
                            for fn in ast.walk(node) if isinstance(fn, ast.FunctionDef))
                continue
            owner = f"{module}.{node.name}"
            if _is_dataclass(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                yield (owner, node.name, [f.target.id for f in fields],
                       [f.target.id for f in fields if _has_default(f)])
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    yield _function(owner, node.name, fn, 1)
                elif isinstance(fn, ast.FunctionDef):
                    yield _function(f"{owner}.{fn.name}", fn.name, fn, 1)


def _function(owner, name, fn, skip):
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args][skip:]
    defaulted = names[len(names) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return owner, name, names + [a.arg for a in args.kwonlyargs], defaulted


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def defaults(trees):
    """``module.owner.parameter`` of every defaulted parameter and dataclass field."""
    return [f"{owner}.{p}" for owner, _, _, defaulted in signatures(trees) for p in defaulted]


def defaults_no_call_leaves_out(trees):
    """Each default of ``defaults`` that every src/neseek call passes."""
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for owner, name, params, defaulted in signatures(trees):
        mine = [c for c in calls if _callee(c) == name and not any(
            isinstance(a, ast.Starred) for a in c.args) and all(k.arg for k in c.keywords)]
        for p in defaulted:
            if not any(len(c.args) <= params.index(p) and p not in {k.arg for k in c.keywords}
                       for c in mine):
                found.append(f"{owner}.{p}")
    return found


def _members(cls):
    """Fields, class attributes, methods and ``self.x`` assignments of a class."""
    names = set()
    for s in cls.body:
        if isinstance(s, ast.AnnAssign):
            names.add(s.target.id)
        elif isinstance(s, ast.Assign):
            names.update(t.id for t in s.targets if isinstance(t, ast.Name))
        elif isinstance(s, ast.FunctionDef):
            names.add(s.name)
            names.update(n.attr for n in ast.walk(s) if isinstance(n, ast.Attribute)
                         and isinstance(n.value, ast.Name) and n.value.id == "self"
                         and isinstance(n.ctx, ast.Store))
    return names


def unread_members(trees):
    """``module.class.name`` of each property or method src/neseek never reads.

    A read ``x.name`` goes to the classes that can hold ``x``: ``self``
    is its own class, and a variable name is each class that has every
    attribute the package reads through that name.  Where no such class
    has ``name`` (or the receiver is no plain name), any class with it.
    """
    classes = {f"{module}.{c.name}": c for module, tree in trees.items()
               for c in tree.body if isinstance(c, ast.ClassDef)}
    members = {qual: _members(cls) for qual, cls in classes.items()}
    reads = []  # (receiver, attribute); self is its class, else a variable name or None
    scopes = [(None, [s for s in tree.body if not isinstance(s, ast.ClassDef)])
              for tree in trees.values()] + list(zip(classes, (c.body for c in classes.values())))
    for owner, body in scopes:
        for node in (n for s in body for n in ast.walk(s)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                base = node.value.id if isinstance(node.value, ast.Name) else None
                reads.append((owner if base == "self" else base, node.attr))
    through = {}
    for receiver, attr in reads:
        through.setdefault(receiver, set()).add(attr)
    read = set()
    for receiver, attr in reads:
        holders = {q for q in members if attr in members[q]}
        typed = {receiver} if receiver in members else {
            q for q in holders if receiver and through[receiver] <= members[q]}
        read.update(f"{q}.{attr}" for q in (typed & holders or holders))
    return [f"{qual}.{fn.name}" for qual, cls in classes.items() for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
            and f"{qual}.{fn.name}" not in read]


def package_trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_every_default_is_left_out_by_a_library_call():
    trees = package_trees()
    exempt = {f"{owner}.{f}" for owner, fs in OUTSIDE_INPUT.items() for f in fs}
    assert exempt <= set(defaults(trees))
    assert [d for d in defaults_no_call_leaves_out(trees) if d not in exempt] == []


def test_every_property_and_method_is_read_by_the_library():
    assert unread_members(package_trees()) == []


def test_finder_sees_a_default_no_call_leaves_out():
    # f's b is always passed; g's c only by a splat; C's y by keyword
    source = ("from dataclasses import dataclass\n"
              "def f(a, b=1, c=2):\n    return a\n"
              "def g(a, c=0):\n    return a\n"
              "@dataclass\nclass C:\n    x: int\n    y: int = 0\n"
              "f(1, 2)\nf(1, b=3)\nf(*(1,))\ng(**{'a': 1})\ng(1, 2)\nC(1, y=2)\n")
    trees = {"a": ast.parse(source)}
    assert sorted(defaults(trees)) == ["a.C.y", "a.f.b", "a.f.c", "a.g.c"]
    assert sorted(defaults_no_call_leaves_out(trees)) == ["a.C.y", "a.f.b", "a.g.c"]


def test_finder_sees_a_property_only_another_class_reads():
    # plant.m reads Plant's m, not Gains' m; Gains.k is read through self
    source = ("class Plant:\n    A = 0\n    @property\n    def m(self):\n        return 1\n"
              "class Gains:\n    K1 = 0\n    @property\n    def m(self):\n        return self.k\n"
              "    def k(self):\n        return 0\n"
              "def use(plant, c):\n    return plant.A, plant.m, c.K1\n")
    assert unread_members({"a": ast.parse(source)}) == ["a.Gains.m"]



# One error type per exit status.  Every ``raise X(...)`` in src/neseek
# names a class of neseek.errors or an OSError subclass, so the CLI's
# EXIT_CODES reads the status from the raise line itself; a bare
# ``raise`` and ``raise type(err)(...)`` re-raise what was caught.  And
# EXIT_CODES gives each neseek.errors class one status: some entry
# matches it, and no entry for a base class comes before its own.

def raised_names(text):
    """(line, class name) of each ``raise`` in ``text`` that is not a re-raise."""
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not isinstance(exc, ast.Call):  # raise type(err)(...) re-raises
            yield node.lineno, exc.id if isinstance(exc, ast.Name) else exc.attr


def status_problems(classes, exit_codes):
    """Each class ``exit_codes`` gives no status, or the status of a base listed first."""
    found = []
    for cls in classes:
        kinds = [kind for kind, _ in exit_codes if issubclass(cls, kind)]
        if not kinds:
            found.append(f"{cls.__name__}: no status")
        found += [f"{cls.__name__}: {kinds[0].__name__} listed before {k.__name__}"
                  for k in kinds[1:] if issubclass(k, kinds[0])]
    return found


def error_classes():
    from neseek import errors
    return [cls for cls in vars(errors).values()
            if isinstance(cls, type) and cls.__module__ == errors.__name__]


def test_every_raise_names_an_error_with_an_exit_status():
    allowed = {cls.__name__ for cls in error_classes()} | {
        name for name, cls in vars(builtins).items()
        if isinstance(cls, type) and issubclass(cls, OSError)}
    assert [f"{p.stem}:{line}: {name}" for p in sorted(PACKAGE.glob("*.py"))
            for line, name in raised_names(p.read_text()) if name not in allowed] == []


def test_exit_codes_give_every_error_class_one_status():
    from neseek.cli import EXIT_CODES
    classes = error_classes()
    assert {cls.__name__ for cls in classes} == {
        "NeseekError", "ScenarioError", "StaleControllerError", "SynthesisError",
        "AssumptionError"}
    assert status_problems(classes, EXIT_CODES) == []


def test_finder_sees_a_raise_and_a_shadowed_status():
    # a bare raise and type(err)(...) re-raise; a called or bare class does not
    text = ("def f(err):\n    try:\n        g()\n    except OSError:\n        raise\n"
            "    raise type(err)(1)\n\n"
            "def g():\n    raise ValueError('x') from None\n\n"
            "def h():\n    raise errors.ScenarioError\n")
    assert list(raised_names(text)) == [(9, "ValueError"), (12, "ScenarioError")]

    class Base(Exception):
        pass

    class Derived(Base):
        pass

    class Other(Exception):
        pass

    assert status_problems([Base, Derived, Other], ((Base, 1), (Derived, 2))) == [
        "Derived: Base listed before Derived", "Other: no status"]


if __name__ == "__main__":
    # the count tier-1's CI reports beside the line count
    print(len(defaults(package_trees())))
