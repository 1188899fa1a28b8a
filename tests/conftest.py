"""Shared helpers: random lattice classes and independent oracles.

The oracles recompute wall data and function values by routes that share no
code with the implementations they check (circle fitting through equal-slope
points, sign changes of the slope difference on a rational grid, factor sums
at a = 0).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from eval_oracle import horner_eval_rational
from tiltwall import ChernClass, Semicircle, SurfaceConfig, VerticalWall, chd_polynomial, twist
from tiltwall.exactnum import format_rational
from tiltwall.hntree import (
    TreeLeaf,
    TreeNode,
    hn_factors_at,
    tree_from_json,
    tree_to_json,
    validate_tree,
)
from tiltwall.lattice import discriminant, mu_slope
from tiltwall.svgplot import _Frame, _fmt, function_range
from tiltwall.walls import Nesting, enumerate_candidates, nesting
from walls_oracle import class_sub

PPAS = SurfaceConfig.preset("ppas")


def random_class(rng: random.Random, cfg: SurfaceConfig = PPAS) -> ChernClass:
    v0 = cfg.v0_step * rng.randint(-4, 4)
    v1 = cfg.v1_step * rng.randint(-4, 4)
    v2 = Fraction(rng.randint(-8 * cfg.v2_denominator, 8 * cfg.v2_denominator),
                  cfg.v2_denominator)
    return ChernClass(v0, v1, v2)


def random_disc0_class(rng: random.Random) -> ChernClass:
    """Random PPAS lattice class with zero discriminant and positive rank."""
    while True:
        k = rng.randint(-2, 2)
        l = rng.randint(-3, 3)
        t = rng.randint(1, 2)
        if k == 0:
            continue
        # (2k^2, 2kl, l^2) is null for v1^2 - 2 v0 v2; scaling preserves it
        return ChernClass(2 * t * k * k, 2 * t * k * l, Fraction(t * l * l))


def equal_slope_height(v: ChernClass, w: ChernClass, beta: Fraction):
    """The a-value where v and w have equal tilt slope above beta, or None.

    Solves the linear (in a) equation (t2v - a*v0)*t1w = (t2w - a*w0)*t1v
    directly; independent of the closed-form wall formulas.
    """
    tv, tw = twist(v, beta), twist(w, beta)
    denom = tv.t0 * tw.t1 - tw.t0 * tv.t1
    if denom == 0:
        return None
    return (tv.t2 * tw.t1 - tw.t2 * tv.t1) / denom


def fit_circle_through_heights(points):
    """(center, radius_sq) of the circle (b - s)^2 + 2a = r2 through 2 points."""
    (b1, a1), (b2, a2) = points
    # subtracting the two equations is linear in s
    s = (b1 * b1 - b2 * b2 + 2 * (a1 - a2)) / (2 * (b1 - b2))
    r2 = (b1 - s) ** 2 + 2 * a1
    return s, r2


def chd0_value_by_factors(tree, x: Fraction) -> Fraction:
    """chd0(x) recomputed from HN factors at (a = 0, beta = -x).

    Sums the twisted ch2 of the factors with positive slope; raises the
    point-on-wall error for unlucky x, which callers skip.
    """
    factors = hn_factors_at(tree, 0, -x)
    total = Fraction(0)
    for cls, slope in factors:
        if slope == float("inf") or slope > 0:
            total += horner_eval_rational(chd_polynomial(cls), x)
    return total


def pointwise_function_polyline(fn) -> str:
    """The function polyline of ``render_function_svg(fn)``, one ``eval_at`` per point.

    The point-by-point loop the plot used before ``PiecewiseQuadratic.sample``:
    401 points of the 1/1024 grid, each located and evaluated on its own.
    """
    x_lo, x_hi = function_range(fn)
    values = []
    for i in range(401):
        x = Fraction(round((x_lo + (x_hi - x_lo) * i / 400) * 1024), 1024)
        values.append((float(x), float(fn.eval_at(x))))
    fr = _Frame(x_lo, x_hi, max(y for _, y in values) or 1.0)
    pts = " ".join(f"{_fmt(fr.px(x))},{_fmt(fr.py(y))}" for x, y in values)
    return f'<polyline class="function" points="{pts}" fill="none" stroke="blue"/>'


def pointwise_csv(fn, n: int) -> str:
    """``chd --format csv --samples n`` output, one ``eval_at`` per row."""
    lo, hi = function_range(fn)
    lines = ["x,value"]
    for i in range(n + 1):
        x = Fraction(round((lo + (hi - lo) * i / n) * 4096), 4096)
        lines.append(f"{format_rational(x)},{float(fn.eval_at(x)):.6g}")
    return "\n".join(lines) + "\n"


def pointwise_hyperbola_points(v: ChernClass, fr) -> list[str]:
    """Points of the zero-slope locus in a walls plot, one ``twist`` per beta."""
    pts = []
    for i in range(201):
        beta = Fraction(round((fr.x_lo + (fr.x_hi - fr.x_lo) * i / 200) * 1024), 1024)
        a = twist(v, beta).t2 / v.v0
        alpha = math.sqrt(2 * float(a)) if a >= 0 else None
        if alpha is not None and alpha <= fr.y_hi:
            pts.append(f"{_fmt(fr.px(float(beta)))},{_fmt(fr.py(alpha))}")
    return pts


def mutated_trees(rng: random.Random, tree, cfg: SurfaceConfig, n: int) -> list:
    """n copies of tree, each one random mutation away from it.

    A mutation swaps two children of a node, moves one leaf class by one
    lattice step, moves a node's wall center by +-1/2 or grows its radius_sq
    by 1/2, or drops a child.  Most results are invalid; some, such as a swap of leaves with
    equal intercepts, stay valid.
    """
    out = []
    while len(out) < n:
        clone = tree_from_json(tree_to_json(tree))
        stack, nodes, leaves = [clone], [], []
        while stack:
            node = stack.pop()
            if isinstance(node, TreeNode):
                nodes.append(node)
                stack.extend(node.children)
            else:
                leaves.append(node)
        kind = rng.choice(["swap", "step", "wall", "drop"] if nodes else ["step"])
        if kind == "step":
            leaf = rng.choice(leaves)
            v0, v1, v2 = leaf.cls.v0, leaf.cls.v1, leaf.cls.v2
            sign = rng.choice([-1, 1])
            coord = rng.randrange(3)
            if coord == 0:
                v0 += sign * cfg.v0_step
            elif coord == 1:
                v1 += sign * cfg.v1_step
            else:
                v2 += Fraction(sign, cfg.v2_denominator)
            leaf.cls = ChernClass(v0, v1, v2)
        else:
            node = rng.choice(nodes)
            if kind == "swap":
                i, j = rng.sample(range(len(node.children)), 2)
                node.children[i], node.children[j] = node.children[j], node.children[i]
            elif kind == "wall":
                center, radius_sq = node.wall.center, node.wall.radius_sq
                if rng.random() < 0.5:
                    center += Fraction(rng.choice([-1, 1]), 2)
                else:
                    radius_sq += Fraction(1, 2)
                node.wall = Semicircle(center, radius_sq)
            else:
                node.children.pop(rng.randrange(len(node.children)))
        out.append(clone)
    return out


def _frac_sqrt_ceil(q: Fraction) -> int:
    """Smallest integer n with n >= sqrt(q), for q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    n = math.isqrt(q.numerator // q.denominator)
    while n * n < q:
        n += 1
    return n


def _slope_diff_sign(v: ChernClass, w: ChernClass, a: Fraction, beta: Fraction) -> int:
    """Sign of nu(v) - nu(w), computed projectively (robust at infinite slope)."""
    tv, tw = twist(v, beta), twist(w, beta)
    expr = (tv.t2 - a * tv.t0) * tw.t1 - (tw.t2 - a * tw.t0) * tv.t1
    return (expr > 0) - (expr < 0)


def slope_crossing_oracle(v: ChernClass, w: ChernClass, wall, grid_step) -> bool:
    """Brute-force check that the slopes of v and w cross exactly along wall.

    Samples the slope difference on a rational beta-grid straddling the wall
    and verifies the sign changes occur exactly in the grid cells where the
    wall is crossed, and nowhere else.
    """
    grid_step = Fraction(grid_step)
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")

    if isinstance(wall, VerticalWall):
        heights = [Fraction(1, 4), Fraction(1)]
        lo, hi = wall.beta - 8 * grid_step, wall.beta + 8 * grid_step

        def wall_side(beta, a):
            x = beta - wall.beta
            return (x > 0) - (x < 0)

    else:
        # sample at two heights strictly below the top of the semicircle
        heights = [wall.radius_sq / 4, wall.radius_sq / 8]
        span = _frac_sqrt_ceil(wall.radius_sq) + 1
        lo, hi = wall.center - span, wall.center + span

        def wall_side(beta, a):
            x = (beta - wall.center) ** 2 + 2 * a - wall.radius_sq
            return (x > 0) - (x < 0)

    for a in heights:
        beta = lo
        prev_slope = None
        prev_side = None
        while beta <= hi:
            s = _slope_diff_sign(v, w, a, beta)
            side = wall_side(beta, a)
            if prev_slope is not None:
                slope_flips = s != 0 and prev_slope != 0 and s != prev_slope
                side_flips = side != 0 and prev_side != 0 and side != prev_side
                if slope_flips != side_flips:
                    return False
            if s == 0 and side != 0:
                return False  # equal slopes off the reported wall
            prev_slope, prev_side = s, side
            beta += grid_step
    return True


def _split(rng, v, cfg, beta, parent_wall, depth):
    """v as a leaf, or split along one of its walls through beta, strictly
    nested in parent_wall, into a witness and its complement in random order;
    each child splits again at the centre of that wall, where both are in the
    heart."""
    if depth == 0 or rng.random() < 0.25:
        return TreeLeaf(v)
    cands = enumerate_candidates(v, beta, Fraction(1, 20), None, cfg)
    if parent_wall is not None:
        cands = [
            c for c in cands
            if nesting(c.wall, parent_wall) is Nesting.NESTED
            and c.wall.radius_sq < parent_wall.radius_sq
        ]
    if not cands:
        return TreeLeaf(v)
    c = rng.choice(cands)
    w = rng.choice(c.witnesses)
    pair = [w, class_sub(v, w)]
    rng.shuffle(pair)
    children = [_split(rng, u, cfg, c.wall.center, c.wall, depth - 1) for u in pair]
    return TreeNode(v, c.wall, children)


def enumerated_trees(seed: int, count: int) -> list[tuple[str, TreeNode]]:
    """count trees of depth <= 2 that validate_tree accepts, split along the
    walls and witnesses of enumerate_candidates, on both presets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cfg = SurfaceConfig.preset(rng.choice(["ppas", "abelian-(1,2)"]))
        den = cfg.v2_denominator
        v = ChernClass(
            cfg.v0_step * rng.randint(1, 2),
            cfg.v1_step * rng.randint(-2, 2),
            Fraction(rng.randint(-6 * den, 0), den),
        )
        if discriminant(v) <= 0:
            continue
        beta = mu_slope(v) - Fraction(rng.randint(1, 6), rng.randint(1, 3))
        tree = _split(rng, v, cfg, beta, None, 2)
        if isinstance(tree, TreeNode) and validate_tree(tree):
            out.append((cfg.name, tree))
    return out
