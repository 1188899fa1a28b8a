"""chd0 and chd1 as assembled, against the paper's definition.

`definition_oracle` reads both functions from the HN factors at alpha -> 0+
on beta = -x; `assemble_chd0` and `assemble_chd1` add the leaves' ch2^{-x} in
intercept order.  The trees are those of the catalog and trees split along
the walls and witnesses of the enumerator (`conftest.enumerated_trees`).
Nothing is assembled at import, so a broken assembly fails a test here
rather than the collection.
"""

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from conftest import enumerated_trees
from definition_oracle import chd_by_definition
from tiltwall import catalog
from tiltwall.exactnum import QuadraticIrrational as QI
from tiltwall.hntree import TreeLeaf, assemble_chd0, assemble_chd1, tree_leaves
from tiltwall.lattice import mu_slope

TREE_SCENARIOS = [sid for sid in catalog.list_scenarios() if catalog.load_scenario(sid).tree]
ENUMERATED = enumerated_trees(seed=11, count=100)
CASES = [
    *((sid, catalog.load_scenario(sid).tree) for sid in TREE_SCENARIOS),
    *((f"enumerated-{i}", tree) for i, (_, tree) in enumerate(ENUMERATED)),
]


@st.composite
def definition_points(draw):
    """(index, x): a case of CASES and a rational x with beta = -x left of
    its root's vertical wall.  x is a grid point k/den from -mu (from -20 at
    rank 0) to two units past the last breakpoint, a rational breakpoint, or
    one at distance 1/den from it."""
    index = draw(st.integers(min_value=0, max_value=len(CASES) - 1))
    tree = CASES[index][1]
    lo = -mu_slope(tree.cls) if tree.cls.v0 else Fraction(-20)
    breakpoints = assemble_chd0(tree).breakpoints
    span = math.ceil(float(breakpoints[-1] - lo)) + 2 if breakpoints else 4
    den = draw(st.integers(min_value=1, max_value=1000))
    rational = [b.a for b in breakpoints if b.is_rational]
    kind = draw(st.sampled_from(["grid", "breakpoint", "left", "right"] if rational else ["grid"]))
    if kind == "grid":
        x = lo + Fraction(draw(st.integers(min_value=1, max_value=span * den)), den)
    else:
        step = {"breakpoint": 0, "left": -1, "right": 1}[kind]
        x = draw(st.sampled_from(rational)) + Fraction(step, den)
    assume(x > lo)
    return index, x


def test_cases_cover_the_catalog_leaves_and_overlaps():
    assert len(CASES) == len(TREE_SCENARIOS) + 100
    assert any(isinstance(tree, TreeLeaf) for _, tree in CASES)
    # breakpoints where two leaves switch on at once, in the catalog and out of it
    overlapping = [
        name for name, tree in CASES
        if len(assemble_chd0(tree).breakpoints) < len(tree_leaves(tree))
    ]
    assert "ppas-ideal-5-W2" in overlapping and len(overlapping) > 1


@settings(max_examples=300, deadline=None)
@given(definition_points())
# ppas-ideal-5-W2, where two leaves switch on at 3: at 3, just right of it,
# and between its breakpoints
@example((TREE_SCENARIOS.index("ppas-ideal-5-W2"), Fraction(3)))
@example((TREE_SCENARIOS.index("ppas-ideal-5-W2"), Fraction(3001, 1000)))
@example((TREE_SCENARIOS.index("ppas-ideal-5-W2"), Fraction(5, 2)))
def test_assembly_matches_the_definition(case):
    index, x = case
    name, tree = CASES[index]
    chd0, chd1 = chd_by_definition(tree, x)
    assert assemble_chd0(tree).eval_at(x) == QI(chd0), (name, x)
    assert assemble_chd1(tree).eval_at(x) == QI(chd1), (name, x)
