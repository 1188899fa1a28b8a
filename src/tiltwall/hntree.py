"""Destabilization trees, their validation, and Chern degree function assembly.

A tree records successive destabilizations of a class toward the a = 0 line:
each internal node carries the wall along which it splits into its (ordered)
children, and the final vertices determine the breakpoints -p_G of the
resulting piecewise quadratic function.  Trees are input data; this module
verifies their numerical consistency and assembles the functions, it never
decides which walls are actual.  One walk of a tree makes every check and
groups the final vertices by breakpoint; its result is a `ValidationReport`,
whose methods `chd0` and `breakpoints` assemble the function and the
breakpoint reports of a valid tree and refuse any other.

The walk is the only judge of a tree.  For every tree it accepts, the
assembled chd0 is continuous, its last piece is the root's polynomial, and
its derivative jumps by the sum of sqrt(disc) over the final vertices that
switch on at each breakpoint; the proofs are in the docstrings of
`ValidationReport.chd0` and `ValidationReport.breakpoints`, and `check` and
the tests verify the three facts on the assembled functions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exactnum import QuadPoly, QuadraticIrrational, format_rational, quad_eval
from .lattice import (
    ChernClass,
    chd_polynomial,
    class_add,
    discriminant,
    mu_slope,
    p_intercept,
    tilt_slope,
)
from .walls import (
    NumericalWall, Nesting, Semicircle, nesting, wall_a_at, wall_between, wall_from_json,
)

QI = QuadraticIrrational


@dataclass
class TreeLeaf:
    cls: ChernClass
    label: str = ""


@dataclass
class TreeNode:
    cls: ChernClass
    wall: NumericalWall
    children: list[Union["TreeNode", TreeLeaf]]


HNTree = Union[TreeNode, TreeLeaf]


def tree_leaves(tree: HNTree) -> list[TreeLeaf]:
    """Final vertices in lexicographic (depth-first, child-order) order."""
    if isinstance(tree, TreeLeaf):
        return [tree]
    out: list[TreeLeaf] = []
    for child in tree.children:
        out.extend(tree_leaves(child))
    return out


def tree_to_json(tree: HNTree) -> dict:
    if isinstance(tree, TreeLeaf):
        data: dict = {"class": tree.cls.to_json()}
        if tree.label:
            data["label"] = tree.label
        return data
    return {
        "class": tree.cls.to_json(),
        "wall": tree.wall.to_json(),
        "children": [tree_to_json(c) for c in tree.children],
    }


_NODE_KEYS = ("class", "wall", "children", "label")


def tree_from_json(data: dict) -> HNTree:
    """The tree of `tree_to_json` form; malformed data raises ValueError.

    A node has only the keys "class", "wall", "children" and "label".  It is
    internal exactly when it has "children", and then it needs a "wall" and
    has no "label"; a leaf may carry a string "label".  Nothing is dropped
    silently: an unknown key (a typo such as "chlidren" would otherwise turn
    the node into a leaf), a label on an internal node, a "wall" without
    "children", a wall of neither `to_json` form (`wall_from_json`) and a
    label that is not a string are refused, each naming its node.
    """
    if not isinstance(data, dict) or "class" not in data:
        raise ValueError('tree node must be a JSON object with a "class" entry')
    cls = ChernClass.from_json(data["class"])
    unknown = [key for key in data if key not in _NODE_KEYS]
    if unknown:
        raise ValueError(f"tree node {cls} has an unknown key {unknown[0]!r}")
    if "children" in data:
        if "label" in data:
            raise ValueError(f'tree node {cls} has "children", so it cannot have a "label"')
        if not isinstance(data["children"], list) or not isinstance(data.get("wall"), dict):
            raise ValueError(f'tree node {cls} needs a "wall" object and a "children" list')
        try:
            wall = wall_from_json(data["wall"])
        except ValueError as exc:
            raise ValueError(f"tree node {cls}: {exc}") from None
        return TreeNode(cls, wall, [tree_from_json(c) for c in data["children"]])
    if "wall" in data:
        raise ValueError(f'tree node {cls} has a "wall" but no "children" list')
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"tree leaf {cls} has a label that is not a string: {label!r}")
    return TreeLeaf(cls, label)


class InvalidTreeError(ValueError):
    """A tree fails ``validate_tree``; the message lists every violation."""


@dataclass
class ValidationReport:
    """The result of the one walk of a tree (see `_walk`).

    violations lists every failed check with its node path; groups holds the
    final vertices grouped by breakpoint x = -p_G, in ascending x when there
    is no violation.  `chd0` and `breakpoints` read the groups; both raise
    InvalidTreeError on a report with violations.
    """

    violations: list[str]
    groups: list[tuple[QI, list[TreeLeaf]]]

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.passed

    def raise_if_invalid(self) -> None:
        if self.violations:
            raise InvalidTreeError("invalid tree: " + "; ".join(self.violations))

    def chd0(self) -> PiecewiseQuadratic:
        """chd0 of the valid tree: the piece after the k-th breakpoint is the
        cumulative sum of chd(G) over the leaves switched on so far.

        The result is correct by construction for every tree `_walk` accepts,
        as proved below, so none of it is evaluated here.  Write
        chd(G)(x) = v2 + v1*x + (v0/2)*x^2 = ch2^{-x}(G) and p_G for the
        intercept of leaf G.

        Last piece.  The last piece is the sum of chd(G) over all leaves.  chd is
        linear in the class, so this is chd of the sum of the leaves.  The walk
        checks at every internal node that its children sum to it, so by
        induction the leaves sum to the root, and the last piece is chd(root).

        Continuity.  At the k-th breakpoint x_k the piece changes by the sum of
        chd(G) over the leaves with -p_G = x_k.  The walk checks that p_G is
        non-increasing along the leaves, so those leaves are consecutive and
        form one group, and the breakpoints ascend strictly.  Each term
        vanishes at x_k: chd(G)(-p_G) = ch2^{p_G}(G) = 0, because p_G is a
        root of beta -> ch2^beta(G).  So the two pieces agree at x_k.
        """
        self.raise_if_invalid()
        pieces: list[QuadPoly] = [QuadPoly(0)]
        for _, leaves in self.groups:
            acc = pieces[-1]
            for leaf in leaves:
                acc = acc + chd_polynomial(leaf.cls)
            pieces.append(acc)
        return PiecewiseQuadratic([x for x, _ in self.groups], pieces)

    def breakpoints(self) -> list[BreakpointReport]:
        """One `BreakpointReport` per group of the valid tree.

        Jump.  The derivative of the assembled chd0 jumps at x_k by the sum of
        chd(G)'(x_k) = v1 + v0*x_k over the leaves G switched on there (see
        `chd0`).  That sum is the reported jump, computed from x_k = -p_G,
        which the walk already holds, so no radicand is factored here.  Each
        term is sqrt(disc(G)), so the jump is the sum of sqrt(disc) by the
        following proof and is not rechecked.  For v0 != 0, `p_intercept`
        computes p_G = (v1 - sqrt(disc))/v0, a root of ch2^beta(G) =
        (v0/2)*beta^2 - v1*beta + v2 (whose discriminant is disc(G)); so
        v1 - v0*p_G = sqrt(disc).  For v0 = 0, p_G = v2/v1 and the term is v1,
        which equals sqrt(disc) = |v1| exactly when v1 > 0: the walk refuses a
        leaf of rank 0 with v1 < 0, and one with v1 = 0 has no intercept.  So
        a term is 0 exactly when disc(G) = 0, which is what the tags read.
        """
        self.raise_if_invalid()
        reports = []
        for x, contributing in self.groups:
            roots = [leaf.cls.v1 + leaf.cls.v0 * x for leaf in contributing]
            jump = sum(roots, QI(0))
            tags = set()
            has_positive = any(r != 0 for r in roots)
            if has_positive and x.is_rational:
                tags.add("a")
            overlap = len(contributing) > 1
            if overlap and has_positive and 0 in roots:
                tags.add("c")
            reports.append(
                BreakpointReport(
                    x=x,
                    contributing_leaves=contributing,
                    derivative_jump=jump,
                    differentiable=jump == QI(0),
                    condition_tags=frozenset(tags),
                    overlap=overlap,
                )
            )
        return reports


def validate_tree(tree: HNTree) -> ValidationReport:
    """Check every structural invariant of a destabilization tree.

    One walk of the tree makes every check and groups the final vertices by
    breakpoint.  Failures are reported with node paths; they are data, not
    exceptions.
    """
    return _walk(tree)


def _walk(tree: HNTree) -> ValidationReport:
    """The report of one depth-first pass.  Each node's discriminant is
    checked once, at its own path; only a leaf with disc >= 0 can lack p_G.

    A root of negative rank is refused: the last piece of chd0 is chd(root)
    (see `ValidationReport.chd0`), whose leading coefficient v0/2 would be
    negative, so chd0 would be negative for large x.

    A leaf of rank 0 must have positive degree: a torsion sheaf has v1 >= 0,
    v0 = v1 = 0 has no intercept, and with v1 < 0 the derivative of chd0
    would jump by v1 = -sqrt(disc) (see `ValidationReport.breakpoints`).
    Such a leaf still gets its intercept, so the order check runs over every
    leaf.
    """
    violations: list[str] = []
    leaves: list[tuple[Optional[QI], TreeLeaf]] = []
    if tree.cls.v0 < 0:
        violations.append(f"root: root has negative rank {tree.cls.v0}")

    def visit(node: HNTree, path: str, parent_wall: Optional[NumericalWall]):
        disc = discriminant(node.cls)
        if disc < 0:
            violations.append(f"{path}: discriminant is negative")
        if isinstance(node, TreeLeaf):
            p = None
            if node.cls.v0 == 0 and node.cls.v1 < 0:
                violations.append(f"{path}: leaf of rank 0 has negative degree {node.cls.v1}")
            if disc >= 0:
                try:
                    p = p_intercept(node.cls)
                except ValueError as exc:
                    violations.append(f"{path}: leaf has no intercept ({exc})")
            leaves.append((p, node))
            return
        if len(node.children) < 2:
            violations.append(f"{path}: internal node needs at least two children")
        total = None
        for child in node.children:
            total = child.cls if total is None else class_add(total, child.cls)
        if total != node.cls:
            violations.append(f"{path}: children sum to {total}, expected {node.cls}")
        for i, child in enumerate(node.children):
            w = wall_between(node.cls, child.cls)
            if w != node.wall:
                violations.append(
                    f"{path}.{i}: wall between node and child is {w}, node wall is {node.wall}"
                )
        if len(node.children) >= 2:
            child_disc = sum(discriminant(c.cls) for c in node.children)
            if not child_disc < disc:
                violations.append(
                    f"{path}: children discriminants sum to {child_disc}, not below {disc}"
                )
        if isinstance(parent_wall, Semicircle) and isinstance(node.wall, Semicircle):
            rel = nesting(node.wall, parent_wall)
            if not (rel is Nesting.NESTED and node.wall.radius_sq < parent_wall.radius_sq):
                violations.append(
                    f"{path}: wall {node.wall} is not strictly nested inside {parent_wall}"
                )
        for i, child in enumerate(node.children):
            visit(child, f"{path}.{i}", node.wall)

    visit(tree, "root", None)

    # well-orderedness: leaf intercepts non-increasing in lexicographic order,
    # so the leaves sharing a breakpoint x = -p_G are consecutive: one group
    groups: list[tuple[QI, list[TreeLeaf]]] = []
    if all(p is not None for p, _ in leaves):  # a missing intercept is already reported
        for i, (p, leaf) in enumerate(leaves):
            x = -p
            if groups and groups[-1][0] == x:
                groups[-1][1].append(leaf)
                continue
            if groups and x < groups[-1][0]:
                q = leaves[i - 1][0]
                violations.append(f"not well-ordered: leaf {i - 1} has p = {q} < {p} = leaf {i}")
            groups.append((x, [leaf]))
    return ValidationReport(violations, groups)


class PointOnWallError(ValueError):
    """The query point lies on a wall; the filtration is not unique there."""


def hn_factors_at(tree: HNTree, a, beta) -> list[tuple[ChernClass, object]]:
    """Harder-Narasimhan factor classes (with tilt slopes) at the point (a, beta).

    A node splits into its children iff the point lies strictly inside the
    node's wall: below the wall's height ``wall_a_at`` over beta.  At a = 0
    consecutive equal-slope factors are merged.
    """
    a, beta = Fraction(a), Fraction(beta)
    if a < 0:
        raise ValueError("a must be nonnegative")
    root_cls = tree.cls
    if root_cls.v0 > 0 and not beta < mu_slope(root_cls):
        raise ValueError("beta must be strictly left of the vertical wall")

    def collect(node: HNTree) -> list[ChernClass]:
        if isinstance(node, TreeLeaf):
            return [node.cls]
        if not isinstance(node.wall, Semicircle):
            raise ValueError("vertical walls are not supported in trees")
        top = wall_a_at(node.wall, beta)
        if top is None or a > top:
            return [node.cls]
        if a == top:
            raise PointOnWallError("point lies on a wall; filtration not unique")
        out: list[ChernClass] = []
        for child in node.children:
            out.extend(collect(child))
        return out

    factors = collect(tree)
    result = [(cls, tilt_slope(cls, a, beta)) for cls in factors]
    if a == 0:
        merged: list[tuple[ChernClass, object]] = []
        for cls, slope in result:
            if merged and merged[-1][1] == slope:
                prev_cls, _ = merged[-1]
                merged[-1] = (class_add(prev_cls, cls), slope)
            else:
                merged.append((cls, slope))
        result = merged
    return result


@dataclass
class PiecewiseQuadratic:
    """Sorted algebraic breakpoints with one quadratic piece per interval.

    pieces[i] applies on [breakpoints[i-1], breakpoints[i]]; the function is
    continuous, with len(pieces) == len(breakpoints) + 1.  domain_start, when
    set, restricts where the function is meaningful (used for chd^1, which is
    only described right of the vertical wall).
    """

    breakpoints: list[QI]
    pieces: list[QuadPoly]
    domain_start: Optional[QI] = None

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        for i in range(len(self.breakpoints) - 1):
            if not self.breakpoints[i] < self.breakpoints[i + 1]:
                raise ValueError("breakpoints must be strictly ascending")

    def eval_at(self, x) -> QI:
        """The exact value at x.  Piece rule: x takes pieces[i] for the first i
        with x <= breakpoints[i], the last piece if there is none; that i is
        `bisect_left(breakpoints, x)`."""
        x = x if isinstance(x, QI) else QI(Fraction(x))
        return quad_eval(self.pieces[bisect_left(self.breakpoints, x)], x)

    def sample(self, ks: list[int], den: int) -> list[tuple[int, int]]:
        """Exact values at the grid points k/den, for integers ks in any order
        and a positive int den, each as an unreduced pair (N, M) of ints with
        value N/M and M > 0.

        Piece: each breakpoint b becomes the integer threshold
        t = floor(b*den) (`QuadraticIrrational.floor_times`).  For an integer
        k, b < k/den exactly when t < k; floor is monotone, so the thresholds
        ascend weakly, and `bisect_left(thresholds, k)`, the number of
        thresholds below k, is the number of breakpoints below k/den, that is
        `bisect_left(breakpoints, k/den)`: the piece of `eval_at`, the left
        one at a breakpoint.  Value: that piece's `QuadPoly.grid_value`.  No
        Fraction is built and no breakpoint is compared per point; `N / M` is
        the correctly rounded float of the value.
        """
        thresholds = [b.floor_times(den) for b in self.breakpoints]
        pieces = self.pieces
        return [pieces[bisect_left(thresholds, k)].grid_value(k, den) for k in ks]

    def check_continuity(self) -> bool:
        for i, b in enumerate(self.breakpoints):
            if quad_eval(self.pieces[i], b) != quad_eval(self.pieces[i + 1], b):
                return False
        return True

    def check_nonnegative(self) -> bool:
        """Exact nonnegativity on the (restricted) domain, piece by piece
        (`QuadPoly.nonnegative_on`)."""
        for i, p in enumerate(self.pieces):
            lo = self.breakpoints[i - 1] if i > 0 else self.domain_start
            hi = self.breakpoints[i] if i < len(self.breakpoints) else None
            if not p.nonnegative_on(lo, hi):
                return False
        return True

    def reflect(self) -> "PiecewiseQuadratic":
        """The function x -> f(-x): breakpoints negated/reversed, pieces flipped."""
        return PiecewiseQuadratic(
            [-b for b in reversed(self.breakpoints)],
            [p.reflect() for p in reversed(self.pieces)],
            domain_start=None,
        )

    def __eq__(self, other):
        if not isinstance(other, PiecewiseQuadratic):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def to_json(self) -> dict:
        data = {
            "breakpoints": [str(b) for b in self.breakpoints],
            "pieces": [
                [format_rational(p.c0), format_rational(p.c1), format_rational(p.c2)]
                for p in self.pieces
            ],
        }
        if self.domain_start is not None:
            data["domain_start"] = str(self.domain_start)
        return data


def assemble_chd0(tree: HNTree) -> PiecewiseQuadratic:
    """Assemble the degree-0 Chern degree function from a well-ordered tree.

    Breakpoints are the distinct values -p_G over final vertices G; the piece
    after the k-th breakpoint is the cumulative sum of the Chern degree
    polynomials of the leaves switched on so far (`ValidationReport.chd0`).
    """
    return _walk(tree).chd0()


def assemble_chd1(tree: HNTree) -> PiecewiseQuadratic:
    """chd^1 = chd^0 - ch2^{-x}(root), valid right of the vertical wall."""
    chd0 = assemble_chd0(tree)
    root_poly = chd_polynomial(tree.cls)
    root_cls = tree.cls
    domain_start = None
    if root_cls.v0 != 0:
        domain_start = QI(-mu_slope(root_cls))
    fn = PiecewiseQuadratic(
        list(chd0.breakpoints),
        [p - root_poly for p in chd0.pieces],
        domain_start=domain_start,
    )
    if not fn.check_nonnegative():
        raise ValueError("assembled chd1 is negative somewhere on its domain")
    return fn


def trivial_chd(v: ChernClass) -> PiecewiseQuadratic:
    """Two-piece function {0 left of -p_v; ch2^{-x}(v) right of it}.

    This is chd0 of the one-leaf tree: v stays semistable down to a = 0.  The
    walk refuses a negative discriminant, a negative rank, v0 = v1 = 0 and
    rank 0 with negative degree (InvalidTreeError, a ValueError).
    """
    return assemble_chd0(TreeLeaf(v))


@dataclass
class BreakpointReport:
    x: QI
    contributing_leaves: list[TreeLeaf]
    derivative_jump: QI
    differentiable: bool
    condition_tags: frozenset
    overlap: bool


def classify_breakpoints(tree: HNTree) -> list[BreakpointReport]:
    """Critical-point data at each breakpoint of the assembled function.

    The derivative jump equals the sum of sqrt(disc) over contributing final
    vertices, read from their intercepts (`ValidationReport.breakpoints`);
    the function is differentiable exactly when all of them have
    discriminant 0.  Tag "a" (a slope-0 factor at that parameter) is emitted
    when a contributing leaf has positive discriminant and rational
    intercept; tag "c" marks the numerically witnessed overlap of such a leaf
    with a discriminant-0 one.  The remaining classification requires
    geometric input and is never reported from numerical data alone.
    """
    return _walk(tree).breakpoints()
