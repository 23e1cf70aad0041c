"""Public functions and classes of jumplab that no other code in the package
names, defaulted parameters that no call in the package passes, and those
that every call there passes.  Each is pinned here, so a new orphan,
test-only option or test-only default fails the suite, and wiring one in or
deleting it must shrink its set in the same change."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jumplab"

ORPHANS = {
    # montecarlo: criterion 4 cross-validates exit times against it, and
    # perfbench/layertrace.py wraps it by name
    "sample_exit_time",
}

# "function.parameter": a default that every call in src/jumplab leaves as it
# is, so only tests can set it
UNSET = {
    # cli
    "main.argv",
}

# "function.parameter": a default that every call in src/jumplab overrides,
# so its default branch runs only under tests
OVERRIDDEN = set()


def _orphans() -> set[str]:
    """Public top-level definitions of src/jumplab/*.py that no module other
    than __init__.py names, as a Name or an attribute."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined - named


def test_orphans_are_pinned():
    assert _orphans() == ORPHANS


def _calls_passing() -> dict[str, list[bool]]:
    """For each defaulted parameter of the functions of src/jumplab/*.py (but
    __init__.py), "function.parameter" -> whether each call there passes it,
    by position or by keyword.  Calls are matched by callee name; self and
    cls are not positions."""
    params, calls = {}, {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                pos = [x.arg for x in a.posonlyargs + a.args]
                skip = 1 if pos[:1] in (["self"], ["cls"]) else 0
                for i in range(len(pos) - len(a.defaults), len(pos)):
                    params[node.name, pos[i]] = i - skip
                for x, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        params[node.name, x.arg] = None
            elif isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call, name, i):
        return (any(k.arg in (name, None) for k in call.keywords)
                or i is not None and (len(call.args) > i or any(
                    isinstance(x, ast.Starred) for x in call.args)))

    return {f"{fn}.{name}": [passed(c, name, i) for c in calls.get(fn, [])]
            for (fn, name), i in params.items()}


def test_unset_defaults_are_pinned():
    assert {p for p, calls in _calls_passing().items()
            if not any(calls)} == UNSET


def test_overridden_defaults_are_pinned():
    assert {p for p, calls in _calls_passing().items()
            if calls and all(calls)} == OVERRIDDEN
