"""Chern degree functions by the paper's definition: the oracle for assembly.

The paper reads chd0(E)(x) and chd1(E)(x) from the HN filtration of E at
alpha -> 0+ on the line beta = -x, left of the vertical wall:

    chd0(x) = sum of max(ch2^{-x}(F), 0),  chd1(x) = sum of max(-ch2^{-x}(F), 0)

over the HN factors F.  `hn_factors_at` splits a node exactly when the point
lies strictly inside the node's wall, so the filtration changes with the
height a only where a wall of the tree crosses beta.  The lowest such height
is a* = min (r^2 - (beta - c)^2)/2 over the walls that strictly contain beta
(`wall_a_at`), and at a = a*/2 the filtration is the one at alpha -> 0+.  When
no wall contains beta, every height gives it.  The assembly in `hntree` adds
the leaves' ch2^{-x} in intercept order instead; this module never reads it.
"""

from __future__ import annotations

from fractions import Fraction

from tiltwall.hntree import TreeNode, hn_factors_at
from tiltwall.lattice import twist
from tiltwall.walls import wall_a_at


def tree_walls(tree):
    """The walls of the internal nodes of the tree."""
    if isinstance(tree, TreeNode):
        yield tree.wall
        for child in tree.children:
            yield from tree_walls(child)


def height_below_walls(tree, beta: Fraction) -> Fraction:
    """a*/2 for the lowest height a* > 0 of a wall that strictly contains
    beta, or 1 when no wall does (`wall_a_at` gives None outside a wall and 0
    at its feet)."""
    heights = [a for a in (wall_a_at(w, beta) for w in tree_walls(tree)) if a]
    return min(heights) / 2 if heights else Fraction(1)


def chd_by_definition(tree, x) -> tuple[Fraction, Fraction]:
    """(chd0(x), chd1(x)) from the HN factors at alpha -> 0+ on beta = -x,
    for a rational x with beta left of the root's vertical wall."""
    beta = -Fraction(x)
    chd0 = chd1 = Fraction(0)
    for cls, _ in hn_factors_at(tree, height_below_walls(tree, beta), beta):
        t2 = twist(cls, beta).t2
        chd0 += max(t2, 0)
        chd1 += max(-t2, 0)
    return chd0, chd1
