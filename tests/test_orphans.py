"""Public functions and classes of jumplab that no other code in the package
names.  Each is pinned here, so a new orphan fails the suite, and wiring one
in or deleting it must shrink the list in the same change."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jumplab"

ORPHANS = {
    # harnack
    "caloric_box_ratio", "harmonic_partition_residual", "first_jump_density",
    # conditions
    "check_ndlb", "check_sb", "poincare_rayleigh", "weighted_poincare_sides",
    "check_weighted_poincare", "check_nash",
    # montecarlo
    "sample_exit_time", "sample_occupation",
    # models
    "validate_constants",
    # semigroup
    "apply_generator", "duhamel_generators", "harmonic_extension",
}


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
