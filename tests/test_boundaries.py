"""Module boundaries and the public names of the package, pinned.

A private name (leading underscore) used across modules of `src/tiltwall`
couples their internals; none is used, so adding one is a deliberate
change.  The same holds for `__all__`.
"""

import ast
from pathlib import Path

import tiltwall

SRC = Path(tiltwall.__file__).parent

# (importing module, module imported from, private name)
CROSS_MODULE_PRIVATES = set()

PUBLIC_NAMES = [
    "ChernClass",
    "PiecewiseQuadratic",
    "QuadPoly",
    "QuadraticIrrational",
    "Semicircle",
    "SurfaceConfig",
    "TreeLeaf",
    "TreeNode",
    "VerticalWall",
    "assemble_chd0",
    "assemble_chd1",
    "central_charge",
    "chd_polynomial",
    "classify_breakpoints",
    "discriminant",
    "enumerate_candidates",
    "hn_factors_at",
    "mu_slope",
    "nesting",
    "p_intercept",
    "quad_eval",
    "tilt_slope",
    "tree_from_json",
    "tree_to_json",
    "trivial_chd",
    "twist",
    "validate_tree",
    "wall_between",
]


def _private_uses() -> set[tuple[str, str, str]]:
    """Private names one module takes from another, by `from .m import _x`
    or, for a sibling bound by `from . import m`, by `m._x`."""
    uses = set()
    for path in sorted(SRC.glob("*.py")):
        here = path.stem
        tree = ast.parse(path.read_text(), str(path))
        siblings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        uses.add((here, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
            ):
                uses.add((here, siblings[node.value.id], node.attr))
    return uses


def test_cross_module_private_imports_are_pinned():
    assert _private_uses() == CROSS_MODULE_PRIVATES


def test_public_names_are_pinned():
    assert tiltwall.__all__ == PUBLIC_NAMES
    assert all(hasattr(tiltwall, name) for name in PUBLIC_NAMES)
