from fractions import Fraction

import pytest

from tiltwall import catalog, hntree
from tiltwall.hntree import (
    TreeLeaf,
    TreeNode,
    tree_from_json,
    tree_leaves,
    tree_to_json,
    trivial_chd,
)
from tiltwall.lattice import ChernClass
from tiltwall.walls import Semicircle, enumerate_candidates
from conftest import slope_crossing_oracle

F = Fraction

EXPECTED_IDS = [
    "abelian12-ideal-point",
    "ppas-abel-jacobi",
    "ppas-ideal-1",
    "ppas-ideal-2",
    "ppas-ideal-3-collinear",
    "ppas-ideal-3-generic",
    "ppas-ideal-4-collinear",
    "ppas-ideal-4-generic",
    "ppas-ideal-5-W1-walls",
    "ppas-ideal-5-W2",
    "ppas-ideal-5-W3-walls",
    "ppas-ideal-5-generic",
    "ppas-structure-sheaf",
]


def test_inventory():
    assert catalog.list_scenarios() == EXPECTED_IDS


def test_unknown_id():
    with pytest.raises(KeyError, match="unknown scenario"):
        catalog.load_scenario("nope")


@pytest.fixture(scope="module")
def matrix():
    return catalog.regression_checks()


def _outcomes(matrix, sid, kind=""):
    """Outcomes of the matrix checks named "<sid>: <kind>...", in order."""
    return [ok for name, ok in matrix if name.startswith(f"{sid}: {kind}")]


def test_regression_matrix_passes(matrix):
    assert len(matrix) == 55
    assert [name for name, ok in matrix if not ok] == []


def _count_calls(monkeypatch, name):
    """Wrap hntree.<name>; the returned list grows by one per call."""
    calls = []
    inner = getattr(hntree, name)

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(hntree, name, counted)
    return calls


def test_each_tree_is_validated_once(monkeypatch):
    walks = _count_calls(monkeypatch, "_walk")
    assert all(ok for _, ok in catalog.regression_checks())
    assert len(walks) == 11  # one per scenario with a tree


_W2 = catalog.load_scenario("ppas-ideal-5-W2").tree


@pytest.mark.parametrize("run, expected", [
    (catalog.regression_checks, 20),  # 20 leaves over the 11 trees
    (lambda: hntree.classify_breakpoints(_W2), 3),
    (lambda: hntree.validate_tree(_W2), 3),
    (lambda: hntree.assemble_chd1(_W2), 3),
], ids=["regression_checks", "classify_breakpoints", "validate_tree", "assemble_chd1"])
def test_each_leaf_intercept_is_computed_once(monkeypatch, run, expected):
    calls = _count_calls(monkeypatch, "p_intercept")
    run()
    assert len(calls) == expected


_TWO_POINTS = catalog.load_scenario("ppas-ideal-2").tree


@pytest.mark.parametrize("sid, tree, failing", [
    # children swapped: leaf intercepts no longer non-increasing
    ("ppas-ideal-2", TreeNode(_TWO_POINTS.cls, _TWO_POINTS.wall, _TWO_POINTS.children[::-1]),
     ["tree valid", "chd0 regression", "continuity", "nonnegative", "derivative jumps"]),
    # a one-leaf tree with a negative discriminant has no "tree valid" row
    ("ppas-ideal-1", TreeLeaf(ChernClass(2, 0, 1)),
     ["chd0 regression", "continuity", "nonnegative"]),
    # a rank-0 leaf of negative degree, whose derivative jump is -sqrt(disc)
    ("ppas-ideal-3-collinear",
     TreeNode(ChernClass(2, 0, -3), Semicircle(F(2), F(1)),
              [TreeLeaf(ChernClass(0, -2, -4)), TreeLeaf(ChernClass(2, 2, 1))]),
     ["tree valid", "chd0 regression", "continuity", "nonnegative", "derivative jumps"]),
])
def test_invalid_tree_fails_every_row_that_needs_its_function(monkeypatch, sid, tree, failing):
    monkeypatch.setattr(catalog.load_scenario(sid), "tree", tree)
    failed = [name for name, ok in catalog.regression_checks() if not ok]
    assert failed == [f"{sid}: {row}" for row in failing]


@pytest.mark.parametrize("sid", EXPECTED_IDS)
def test_scenario_consistency(sid, matrix):
    scenario = catalog.load_scenario(sid)
    scenario.config.check_class(scenario.cls)
    assert all(_outcomes(matrix, sid))
    if scenario.tree is None:
        assert scenario.expected_walls
        return
    assert scenario.tree.cls == scenario.cls
    for leaf in tree_leaves(scenario.tree):
        scenario.config.check_class(leaf.cls)
    assert _outcomes(matrix, sid, "chd0 regression") == [True]
    if scenario.trivial:
        # the class meets trivial_chd's precondition; its function is the leaf's
        assert trivial_chd(scenario.cls) == scenario.expected_chd0


@pytest.mark.parametrize("sid", EXPECTED_IDS)
def test_expected_jumps(sid, matrix):
    expected = [True] if catalog.load_scenario(sid).expected_jumps else []
    assert _outcomes(matrix, sid, "derivative jumps") == expected


@pytest.mark.parametrize("sid", EXPECTED_IDS)
def test_expected_walls_found_and_confirmed(sid, matrix):
    walls = catalog.load_scenario(sid).expected_walls
    assert _outcomes(matrix, sid, "wall ") == [True] * len(walls)


@pytest.mark.parametrize("sid", EXPECTED_IDS)
def test_every_internal_wall_is_enumerable(sid):
    """Each wall in each tree is found when searching a segment crossing it."""
    scenario = catalog.load_scenario(sid)

    def nodes(t):
        if not hasattr(t, "children"):
            return
        yield t
        for c in t.children:
            yield from nodes(c)

    if scenario.tree is None:
        return
    for node in nodes(scenario.tree):
        wall = node.wall
        beta = wall.center  # the top point is the highest crossing
        cross = wall.radius_sq / 2
        cands = enumerate_candidates(
            node.cls, beta, cross / 2, wall.radius_sq, scenario.config
        )
        match = [c for c in cands if c.wall == wall]
        assert match, f"{sid}: wall {wall} of {node.cls} not enumerated"
        assert match[0].cross_a == cross
        assert slope_crossing_oracle(node.cls, match[0].witness, wall, F(1, 64))


@pytest.mark.parametrize("sid", EXPECTED_IDS)
def test_tree_export_round_trip(sid):
    scenario = catalog.load_scenario(sid)
    if scenario.tree is None:
        return
    data = tree_to_json(scenario.tree)
    assert tree_to_json(tree_from_json(data)) == data
