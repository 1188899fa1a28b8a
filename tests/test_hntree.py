import functools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tiltwall.exactnum import QuadPoly, QuadraticIrrational as QI, quad_eval
from tiltwall.hntree import (
    InvalidTreeError,
    PiecewiseQuadratic,
    PointOnWallError,
    TreeLeaf,
    TreeNode,
    assemble_chd0,
    assemble_chd1,
    classify_breakpoints,
    hn_factors_at,
    tree_from_json,
    tree_leaves,
    tree_to_json,
    trivial_chd,
    validate_tree,
)
from tiltwall.lattice import (
    INF, ChernClass, central_charge, chd_polynomial, class_add, discriminant, mu_slope,
)
from tiltwall.walls import Semicircle, wall_a_at, wall_between
from tiltwall import catalog, exactnum
from conftest import chd0_value_by_factors, enumerated_trees, merging_tree, mutated_trees
from walls_oracle import class_sub

F = Fraction


def n4_tree() -> TreeNode:
    return TreeNode(
        ChernClass(2, 0, -4),
        Semicircle(F(-5, 2), F(9, 4)),
        [
            TreeLeaf(ChernClass(2, -2, 1)),
            TreeNode(
                ChernClass(0, 2, -5),
                Semicircle(F(-5, 2), F(1, 4)),
                [
                    TreeLeaf(ChernClass(2, -4, 4)),
                    TreeLeaf(ChernClass(-2, 6, -9)),
                ],
            ),
        ],
    )


class TestValidation:
    def test_known_good_tree(self):
        report = validate_tree(n4_tree())
        assert report and not report.violations

    def test_swapped_children_break_well_order(self):
        tree = n4_tree()
        inner = tree.children[1]
        inner.children = [inner.children[1], inner.children[0]]
        report = validate_tree(tree)
        assert not report
        assert any("well-ordered" in v for v in report.violations)

    def test_bad_child_sum(self):
        tree = TreeNode(
            ChernClass(2, 0, -2),
            Semicircle(F(-3, 2), F(1, 4)),
            [TreeLeaf(ChernClass(2, -2, 1)), TreeLeaf(ChernClass(0, 2, -2))],
        )
        report = validate_tree(tree)
        assert any("sum" in v for v in report.violations)

    def test_wrong_wall(self):
        tree = TreeNode(
            ChernClass(2, 0, -2),
            Semicircle(F(-2), F(1)),
            [TreeLeaf(ChernClass(4, -4, 2)), TreeLeaf(ChernClass(-2, 4, -4))],
        )
        report = validate_tree(tree)
        assert any("wall" in v for v in report.violations)

    def test_single_child_rejected(self):
        tree = TreeNode(
            ChernClass(2, 0, -2),
            Semicircle(F(-3, 2), F(1, 4)),
            [TreeLeaf(ChernClass(2, 0, -2))],
        )
        assert any("two children" in v for v in validate_tree(tree).violations)

    def test_inner_wall_must_nest(self):
        tree = n4_tree()
        # widen the inner wall beyond the outer one
        inner = tree.children[1]
        bad = TreeNode(
            inner.cls,
            Semicircle(F(-5, 2), F(25, 4)),
            [TreeLeaf(ChernClass(2, -10, 25)), TreeLeaf(ChernClass(-2, 12, -30))],
        )
        tree.children[1] = bad
        report = validate_tree(tree)
        assert any("nested" in v for v in report.violations)

    def test_negative_discriminant_is_one_violation(self):
        neg, other = ChernClass(2, 0, 1), ChernClass(0, 2, -5)
        root = ChernClass(2, 2, -4)
        tree = TreeNode(root, wall_between(root, neg), [TreeLeaf(neg), TreeLeaf(other)])
        assert validate_tree(tree).violations == ["root.0: discriminant is negative"]
        assert validate_tree(TreeLeaf(neg)).violations == ["root: discriminant is negative"]

    def test_rank0_leaf_of_negative_degree(self):
        # every other check passes: the leaves sum to the root, both walls are
        # (center 2, radius_sq 1), and the intercepts -2 >= -1 are in order;
        # the assembled chd0 would be -1 at x = -3/2
        tree = TreeNode(
            ChernClass(2, 0, -3),
            Semicircle(F(2), F(1)),
            [TreeLeaf(ChernClass(0, -2, -4)), TreeLeaf(ChernClass(2, 2, 1))],
        )
        assert validate_tree(tree).violations == [
            "root.0: leaf of rank 0 has negative degree -2"
        ]
        for fn in (assemble_chd0, assemble_chd1, classify_breakpoints):
            with pytest.raises(InvalidTreeError, match="root.0: leaf of rank 0"):
                fn(tree)

    def test_root_of_negative_rank_is_one_violation(self):
        assert validate_tree(TreeLeaf(ChernClass(-2, 0, 2))).violations == [
            "root: root has negative rank -2"
        ]
        for fn in (assemble_chd0, classify_breakpoints):
            with pytest.raises(InvalidTreeError, match="root: root has negative rank"):
                fn(TreeLeaf(ChernClass(-2, 0, 2)))

    def test_rank0_leaf_without_degree_has_no_intercept(self):
        violations = validate_tree(TreeLeaf(ChernClass(0, 0, 1))).violations
        assert len(violations) == 1 and violations[0].startswith("root: leaf has no intercept")

    def test_json_round_trip(self):
        tree = n4_tree()
        clone = tree_from_json(tree_to_json(tree))
        assert tree_to_json(clone) == tree_to_json(tree)
        assert [l.cls for l in tree_leaves(clone)] == [l.cls for l in tree_leaves(tree)]


def _factors_by_wall_heights(tree, a, beta):
    """``hn_factors_at`` by the height of each wall: a node splits iff a lies
    below ``wall_a_at(wall, beta)``, raises on it, and stays whole where the
    wall has no height over beta; slopes are -Re/Im of ``central_charge``."""
    if tree.cls.v0 > 0 and not beta < mu_slope(tree.cls):
        raise ValueError("beta must be strictly left of the vertical wall")

    def collect(node):
        if isinstance(node, TreeLeaf):
            return [node.cls]
        top = wall_a_at(node.wall, beta)
        if top is None or a > top:
            return [node.cls]
        if a == top:
            raise PointOnWallError("on the wall")
        return [cls for child in node.children for cls in collect(child)]

    result = []
    for cls in collect(tree):
        re_, im = central_charge(cls, a, beta)
        slope = INF if im == 0 else -re_ / im
        if a == 0 and result and result[-1][1] == slope:
            result[-1] = (class_add(result[-1][0], cls), slope)
        else:
            result.append((cls, slope))
    return result


@functools.cache
def _trees_with_walls() -> list[TreeNode]:
    """The catalog trees with a wall and the enumerated trees of depth <= 2."""
    trees = [s.tree for s in map(catalog.load_scenario, catalog.list_scenarios())]
    return [t for t in trees if isinstance(t, TreeNode)] + [t for _, t in ENUMERATED_TREES]


@st.composite
def hn_points(draw):
    """(tree, a, beta) near the wall of one of the tree's nodes: a random
    point, a point exactly on the wall, or a point beside its feet."""
    tree = draw(st.sampled_from(_trees_with_walls()))
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, TreeNode):
            nodes.append(node)
            stack.extend(node.children)
    wall = draw(st.sampled_from(nodes)).wall
    kind = draw(st.sampled_from(["random", "on", "beside"]))
    den = draw(st.sampled_from([1, 2, 3, 4, 8]))
    # reach > radius, so |beta - c| >= reach is beside the feet
    reach = math.isqrt(math.ceil(wall.radius_sq)) + 1
    if kind == "beside":
        offset = reach + F(draw(st.integers(0, 8)), den)
        beta = wall.center + draw(st.sampled_from([-1, 1])) * offset
        return tree, F(draw(st.integers(0, 4)), draw(st.sampled_from([1, 100]))), beta
    offset = F(draw(st.integers(-den * reach, den * reach)), den)
    if kind == "on":
        assume(offset * offset <= wall.radius_sq)
        return tree, wall_a_at(wall, wall.center + offset), wall.center + offset
    # a up to 3/4 of radius_sq, above and below the wall's top radius_sq/2
    a = wall.radius_sq * F(draw(st.integers(0, 24)), 32)
    return tree, a, wall.center + offset


class TestHNFactors:
    def test_inside_both_walls(self):
        factors = hn_factors_at(n4_tree(), F(1, 50), F(-5, 2))
        assert [c for c, _ in factors] == [
            ChernClass(2, -2, 1),
            ChernClass(2, -4, 4),
            ChernClass(-2, 6, -9),
        ]
        slopes = [s for _, s in factors]
        assert slopes == sorted(slopes, reverse=True)
        assert len(set(slopes)) == len(slopes)

    def test_gieseker_chamber(self):
        factors = hn_factors_at(n4_tree(), F(2), F(-5, 2))
        assert [c for c, _ in factors] == [ChernClass(2, 0, -4)]

    def test_between_walls(self):
        # inner wall tops out at 1/8 over beta = -5/2; outer at 9/8
        factors = hn_factors_at(n4_tree(), F(1, 2), F(-5, 2))
        assert [c for c, _ in factors] == [ChernClass(2, -2, 1), ChernClass(0, 2, -5)]

    def test_point_on_wall_refused(self):
        with pytest.raises(PointOnWallError):
            hn_factors_at(n4_tree(), F(9, 8), F(-5, 2))
        # the outer wall's foot at beta = -4 is on the wall at a = 0
        with pytest.raises(PointOnWallError):
            hn_factors_at(n4_tree(), 0, F(-4))

    def test_beside_the_walls(self):
        # the outer wall spans -4 < beta < -1, so it has no height over -9/2
        factors = hn_factors_at(n4_tree(), F(1, 100), F(-9, 2))
        assert [c for c, _ in factors] == [ChernClass(2, 0, -4)]

    def test_trivial_tree(self):
        leaf = TreeLeaf(ChernClass(2, 0, -1))
        assert hn_factors_at(leaf, F(1), F(-1)) == [(leaf.cls, F(-1))]

    def test_right_of_vertical_wall_rejected(self):
        with pytest.raises(ValueError, match="vertical wall"):
            hn_factors_at(n4_tree(), F(1), F(0))

    @given(hn_points())
    @settings(max_examples=300, deadline=None)
    # on the outer wall at its top and at its foot, beside the feet, at a = 0
    # inside both walls, right of the vertical wall, and at a = 0 where the
    # first two of three factors share the slope 0 and merge
    @example((n4_tree(), F(9, 8), F(-5, 2)))
    @example((n4_tree(), F(0), F(-4)))
    @example((n4_tree(), F(1, 100), F(-9, 2)))
    @example((n4_tree(), F(0), F(-5, 2)))
    @example((n4_tree(), F(1), F(0)))
    @example((merging_tree(), F(0), F(-2)))
    def test_matches_the_wall_height_decision(self, point):
        tree, a, beta = point

        def outcome(factors_at):
            try:
                return factors_at(tree, a, beta)
            except PointOnWallError:
                return "on a wall"
            except ValueError as exc:
                return str(exc)

        assert outcome(hn_factors_at) == outcome(_factors_by_wall_heights)


class TestPiecewiseQuadratic:
    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="one more piece"):
            PiecewiseQuadratic([QI(0)], [QuadPoly(0)])
        with pytest.raises(ValueError, match="ascending"):
            PiecewiseQuadratic(
                [QI(1), QI(0)], [QuadPoly(0), QuadPoly(1), QuadPoly(2)]
            )

    def test_eval_and_piece_lookup(self):
        fn = assemble_chd0(n4_tree())
        assert fn.eval_at(F(0)) == QI(0)
        assert fn.eval_at(F(3, 2)) == QI(F(1, 4))
        assert fn.eval_at(F(5, 2)) == QI(F(5, 2))  # (x-1)^2 + (x-2)^2
        assert fn.eval_at(F(4)) == QI(12)

    def test_reflect_involution(self):
        fn = assemble_chd0(n4_tree())
        assert fn.reflect().reflect() == fn

    def test_jump_is_not_continuous(self):
        fn = PiecewiseQuadratic([QI(0), QI.sqrt(2)], [QuadPoly(0), QuadPoly(0), QuadPoly(1)])
        assert not fn.check_continuity()

    @pytest.mark.parametrize("fn", [
        # negative at a breakpoint, from the left piece and from the right one
        PiecewiseQuadratic([QI(0)], [QuadPoly(-1, 0, 1), QuadPoly(1)]),
        PiecewiseQuadratic([QI(0)], [QuadPoly(1), QuadPoly(-1, 0, 1)]),
        # negative at the start of the domain
        PiecewiseQuadratic([], [QuadPoly(-1, 0, 1)], domain_start=QI(0)),
        # nonnegative at both ends, negative at the vertex between them
        PiecewiseQuadratic(
            [QI(-1), QI(3)], [QuadPoly(F(7, 2)), QuadPoly(F(1, 2), -2, 1), QuadPoly(F(7, 2))]
        ),
        # concave, and unbounded on one side
        PiecewiseQuadratic([QI(0)], [QuadPoly(1, 0, -1), QuadPoly(1)]),
        # linear, and unbounded on the side where it falls
        PiecewiseQuadratic([QI(0)], [QuadPoly(1, 1), QuadPoly(1)]),
        PiecewiseQuadratic([QI(0)], [QuadPoly(1), QuadPoly(1, -1)]),
    ])
    def test_negative_somewhere(self, fn):
        assert not fn.check_nonnegative()

    @pytest.mark.parametrize("fn", [
        PiecewiseQuadratic([QI(0)], [QuadPoly(0, 0, 1), QuadPoly(0)]),
        PiecewiseQuadratic([QI(-1), QI(1)], [QuadPoly(0), QuadPoly(1, 0, -1), QuadPoly(0)]),
        PiecewiseQuadratic([], [QuadPoly(0, 1)], domain_start=QI(0)),
        PiecewiseQuadratic([QI(0)], [QuadPoly(0, -1), QuadPoly(0)]),
    ])
    def test_nonnegative(self, fn):
        assert fn.check_nonnegative()


@functools.cache
def _catalog_functions() -> list[PiecewiseQuadratic]:
    """Built on first use, so a fault in assembly fails tests, not collection."""
    fns = []
    for sid in catalog.list_scenarios():
        tree = catalog.load_scenario(sid).tree
        if tree is not None:
            fns += [assemble_chd0(tree), assemble_chd1(tree)]
    # the catalog's breakpoints are all rational; one-leaf functions add irrational ones
    fns += [trivial_chd(ChernClass(*v)) for v in [(2, 0, -5), (2, 2, -3), (4, 2, -5), (0, 2, -5)]]
    return fns + [fn.reflect() for fn in fns]


small = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def mixed_field_functions(draw):
    """Random pieces over up to five breakpoints, rational or in one of several fields."""
    points = {
        draw(small) + draw(small) * QI.sqrt(draw(st.sampled_from([0, 2, 3, 5, 6, 7, 10])))
        for _ in range(draw(st.integers(0, 5)))
    }
    pieces = [QuadPoly(draw(small), draw(small), draw(small)) for _ in range(len(points) + 1)]
    return PiecewiseQuadratic(sorted(points), pieces)


def _grid_floor(b: QI, den: int) -> int:
    """floor(b*den) by exact comparison: the largest k with k/den <= b."""
    k = math.floor(float(b) * den)
    while QI(F(k + 1, den)) <= b:
        k += 1
    while QI(F(k, den)) > b:
        k -= 1
    return k


@st.composite
def functions_with_grid_points(draw):
    """A function, a grid denominator den of 1024 or 4096, and numerators k
    in any order: random ones, and floor(b*den) - 1, floor(b*den) and
    floor(b*den) + 1 for each breakpoint b."""
    fn = draw(st.one_of(st.sampled_from(_catalog_functions()), mixed_field_functions()))
    den = draw(st.sampled_from([1024, 4096]))
    ends = [float(b) for b in fn.breakpoints] or [0.0]
    lo, hi = math.floor(min(ends)) - 2, math.ceil(max(ends)) + 2
    ks = draw(st.lists(st.integers(lo * den, hi * den), max_size=30))
    for b in fn.breakpoints:
        t = _grid_floor(b, den)
        ks += [t - 1, t, t + 1]
    return fn, draw(st.permutations(ks)), den


def _piece_index(fn: PiecewiseQuadratic, x: QI) -> int:
    """The piece rule as a loop: the first i with x <= breakpoints[i], else the last piece."""
    for i, b in enumerate(fn.breakpoints):
        if x <= b:
            return i
    return len(fn.pieces) - 1


class TestEvalAt:
    @settings(max_examples=150, deadline=None)
    @given(mixed_field_functions(), st.lists(small, max_size=5))
    @example(PiecewiseQuadratic([QI.sqrt(2)], [QuadPoly(0), QuadPoly(1)]), [])
    def test_eval_at_follows_the_piece_rule(self, fn, xs):
        # at a breakpoint the two pieces differ for arbitrary pieces, so this
        # tells the left piece from the right one
        for x in [*fn.breakpoints, *map(QI, xs)]:
            assert fn.eval_at(x) == quad_eval(fn.pieces[_piece_index(fn, x)], x), x


class TestSample:
    @settings(max_examples=150, deadline=None)
    @given(functions_with_grid_points())
    # discontinuous at the rational breakpoint 1 = 1024/1024, a grid point, so
    # only the left piece gives 0 there
    @example((PiecewiseQuadratic([QI(1)], [QuadPoly(0), QuadPoly(1)]), [1024], 1024))
    # the irrational breakpoint 1 - sqrt(2), whose root has a negative
    # coefficient: floor(1024*(1 - sqrt(2))) = -425, so -425/1024 takes the
    # left piece and -424/1024 the right one
    @example((PiecewiseQuadratic([1 - QI.sqrt(2)], [QuadPoly(0), QuadPoly(1)]),
              [-426, -425, -424], 1024))
    # points in no order, repeats and breakpoints among them, over den 2; and no points
    @example((assemble_chd0(n4_tree()), [6, 1, 4, 7, 4, 2, -2], 2))
    @example((assemble_chd0(n4_tree()), [], 1024))
    def test_sample_equals_eval_at(self, case):
        fn, ks, den = case
        values = fn.sample(ks, den)
        assert len(values) == len(ks)
        for k, (n, m) in zip(ks, values):
            assert type(n) is int and type(m) is int and m > 0
            assert QI(F(n, m)) == fn.eval_at(F(k, den)), k


class TestAssembly:
    def test_n4_function(self):
        fn = assemble_chd0(n4_tree())
        assert fn.breakpoints == [QI(1), QI(2), QI(3)]
        assert fn.pieces == [
            QuadPoly(0),
            QuadPoly(1, -2, 1),
            QuadPoly(5, -6, 2),
            QuadPoly(-4, 0, 1),
        ]
        assert fn.check_continuity() and fn.check_nonnegative()

    def test_trivial_sqrt_breakpoint(self):
        fn = trivial_chd(ChernClass(2, 0, -2))
        assert fn.breakpoints == [QI.sqrt(2)]
        assert fn.pieces == [QuadPoly(0), QuadPoly(-2, 0, 1)]

    def test_trivial_rejects_bad_classes(self):
        with pytest.raises(ValueError):
            trivial_chd(ChernClass(2, 0, 1))  # negative discriminant
        with pytest.raises(ValueError):
            trivial_chd(ChernClass(-2, 0, 2))
        with pytest.raises(ValueError):
            trivial_chd(ChernClass(0, -2, 1))

    def test_invalid_tree_refused(self):
        bad = TreeNode(
            ChernClass(2, 0, -2),
            Semicircle(F(-3, 2), F(1, 4)),
            [TreeLeaf(ChernClass(2, -2, 1)), TreeLeaf(ChernClass(0, 2, -2))],
        )
        with pytest.raises(ValueError, match="invalid tree"):
            assemble_chd0(bad)

    def test_assembly_refuses_exactly_the_invalid_trees(self):
        rng = random.Random(11)
        outcomes = set()
        for sid in catalog.list_scenarios():
            scenario = catalog.load_scenario(sid)
            if scenario.tree is None:
                continue
            for tree in mutated_trees(rng, scenario.tree, scenario.config, 20):
                valid = validate_tree(tree).passed
                try:
                    assemble_chd0(tree)
                    refused = False
                except InvalidTreeError:
                    refused = True
                assert refused is not valid, (sid, tree_to_json(tree))
                outcomes.add(valid)
        assert outcomes == {True, False}

    def test_broken_invariant_raises_not_asserts(self, monkeypatch):
        # an explicit check, so it also holds under python -O
        monkeypatch.setattr(PiecewiseQuadratic, "check_nonnegative", lambda self: False)
        with pytest.raises(ValueError, match="chd1 is negative"):
            assemble_chd1(n4_tree())

    def test_chd1_alternating_identity(self):
        tree = n4_tree()
        chd0, chd1 = assemble_chd0(tree), assemble_chd1(tree)
        root_poly = chd_polynomial(tree.cls)
        assert chd1.breakpoints == chd0.breakpoints
        for p0, p1 in zip(chd0.pieces, chd1.pieces):
            assert p0 - p1 == root_poly
        assert chd1.domain_start == QI(0)  # -mu of the root
        assert chd1.check_nonnegative()

    def test_factor_sum_oracle(self):
        """chd0 values recomputed from HN factors at a = 0 agree."""
        rng = random.Random(3)
        for sid in catalog.list_scenarios():
            scenario = catalog.load_scenario(sid)
            if scenario.tree is None or scenario.trivial:
                continue
            fn = assemble_chd0(scenario.tree)
            hits = 0
            while hits < 12:
                x = F(rng.randint(-40, 80), 8)
                try:
                    expected = chd0_value_by_factors(scenario.tree, x)
                except (PointOnWallError, ValueError):
                    continue
                assert fn.eval_at(x) == QI(expected), (sid, x)
                hits += 1


class TestBreakpointReports:
    def test_smooth_scenarios(self):
        for sid in ("ppas-ideal-2", "ppas-ideal-4-collinear", "abelian12-ideal-point"):
            tree = catalog.load_scenario(sid).tree
            for report in classify_breakpoints(tree):
                assert report.derivative_jump == QI(0)
                assert report.differentiable

    def test_jump_with_overlap(self):
        tree = catalog.load_scenario("ppas-ideal-5-W2").tree
        by_x = {r.x: r for r in classify_breakpoints(tree)}
        r2 = by_x[QI(2)]
        assert r2.derivative_jump == QI(2)
        assert not r2.differentiable
        assert r2.overlap and len(r2.contributing_leaves) == 2
        assert r2.condition_tags == frozenset({"a", "c"})
        r3 = by_x[QI(3)]
        assert r3.derivative_jump == QI(0) and r3.differentiable

    def test_jump_without_overlap(self):
        tree = catalog.load_scenario("ppas-ideal-3-collinear").tree
        by_x = {r.x: r for r in classify_breakpoints(tree)}
        r = by_x[QI(2)]
        assert r.derivative_jump == QI(2)
        assert not r.overlap
        assert r.condition_tags == frozenset({"a"})

    def test_reports_never_decompose(self, monkeypatch):
        # the walk took each leaf's one square root; the jumps are read off the intercepts
        report = validate_tree(catalog.load_scenario("ppas-ideal-5-W2").tree)

        def refuse(n):
            raise RuntimeError(f"breakpoints() factored radicand {n}")

        monkeypatch.setattr(exactnum, "squarefree_decompose", refuse)
        reports = report.breakpoints()
        monkeypatch.undo()
        assert {r.x: r.derivative_jump for r in reports} == {QI(2): QI(2), QI(3): QI(0)}

    def test_contributing_leaves_are_the_tree_leaves(self):
        for sid in catalog.list_scenarios():
            tree = catalog.load_scenario(sid).tree
            if tree is None:
                continue
            reported = [l for r in classify_breakpoints(tree) for l in r.contributing_leaves]
            leaves = tree_leaves(tree)
            assert len(reported) == len(leaves)
            assert all(a is b for a, b in zip(reported, leaves))

    def test_jump_matches_piece_derivatives(self):
        for sid in catalog.list_scenarios():
            scenario = catalog.load_scenario(sid)
            if scenario.tree is None or scenario.trivial:
                continue
            fn = assemble_chd0(scenario.tree)
            for i, report in enumerate(classify_breakpoints(scenario.tree)):
                left = fn.pieces[i].derivative()
                right = fn.pieces[i + 1].derivative()
                assert quad_eval(right, report.x) - quad_eval(left, report.x) == (
                    report.derivative_jump
                )


ENUMERATED_TREES = enumerated_trees(seed=7, count=60)


class TestCorrectByConstruction:
    """The three facts `_assemble` and `_breakpoint_reports` prove instead of
    re-checking, on trees driven by the wall enumerator."""

    def test_pool_covers_both_presets_and_depth_two(self):
        presets = {name for name, _ in ENUMERATED_TREES}
        assert presets == {"ppas", "abelian-(1,2)"}
        assert any(
            isinstance(child, TreeNode) for _, tree in ENUMERATED_TREES for child in tree.children
        )

    @pytest.mark.parametrize("index", range(len(ENUMERATED_TREES)))
    def test_continuity_last_piece_and_jumps(self, index):
        _, tree = ENUMERATED_TREES[index]
        fn = assemble_chd0(tree)
        assert fn.check_continuity()
        assert fn.pieces[-1] == chd_polynomial(tree.cls)
        reports = classify_breakpoints(tree)
        assert [r.x for r in reports] == fn.breakpoints
        for i, report in enumerate(reports):
            left = fn.pieces[i].derivative()
            right = fn.pieces[i + 1].derivative()
            assert quad_eval(right, report.x) - quad_eval(left, report.x) == (
                report.derivative_jump
            )
            # the jump proof: each leaf's term v1 - v0*p_G is sqrt(disc(G))
            roots = [QI.sqrt(discriminant(l.cls)) for l in report.contributing_leaves]
            assert [l.cls.v1 + l.cls.v0 * report.x for l in report.contributing_leaves] == roots
            assert report.derivative_jump == sum(roots, QI(0))

    @pytest.mark.parametrize("index", range(len(ENUMERATED_TREES)))
    def test_grafted_rank0_leaf_of_negative_degree_is_refused(self, index):
        # split the first leaf G into G - t and t, t of rank 0 and negative degree
        tree = tree_from_json(tree_to_json(ENUMERATED_TREES[index][1]))
        parent, path = tree, "root"
        while isinstance(parent.children[0], TreeNode):
            parent, path = parent.children[0], path + ".0"
        g = parent.children[0].cls
        t = ChernClass(0, -2, F(-1, 2))
        parent.children[0] = TreeNode(
            g, wall_between(g, t), [TreeLeaf(class_sub(g, t)), TreeLeaf(t)]
        )
        violation = f"{path}.0.1: leaf of rank 0 has negative degree -2"
        assert violation in validate_tree(tree).violations
        with pytest.raises(InvalidTreeError, match=re.escape(violation)):
            classify_breakpoints(tree)


class TestSerreDual:
    def test_structure_sheaf_pair(self):
        fn = catalog.load_scenario("ppas-structure-sheaf").expected_chd0
        dual = fn.reflect()
        assert dual.breakpoints == [QI(0)]
        assert dual.pieces == [QuadPoly(0, 0, 1), QuadPoly(0)]
        assert dual.reflect() == fn

    def test_involution_on_catalog(self):
        for sid in catalog.list_scenarios():
            fn = catalog.load_scenario(sid).expected_chd0
            if fn is None:
                continue
            assert fn.reflect().reflect() == fn
