"""Counts, not clocks: upper bounds on the Fractions the exact layer builds.

The spy `conftest.fractions_built` counts every Fraction instance built
while it is on: the calls of `Fraction.__new__`, and on Python 3.12+ also of
`Fraction._from_coprime_ints`, through which arithmetic builds its results
there without `__new__`.  Each
bound below was measured on CPython 3.11.7 and is derived in its comment;
the counts do not depend on the host's speed, so these tests hold on any
machine and see a change in the arithmetic that a timing would miss.
"""

import sys
from fractions import Fraction

import pytest

from tiltwall import catalog
from tiltwall.hntree import TreeNode, hn_factors_at
from tiltwall.lattice import ChernClass, tilt_slope
from tiltwall.walls import Semicircle, VerticalWall, enumerate_candidates, wall_between
from conftest import fractions_built, merging_tree

F = Fraction


def built(fn, *args):
    """(number of Fractions built by the call fn(*args), its result)."""
    with fractions_built() as fractions:
        result = fn(*args)
    return len(fractions), result


@pytest.mark.parametrize(
    "v, w, kind",
    [
        (ChernClass(2, 0, -5), ChernClass(2, -2, 1), Semicircle),
        (ChernClass(-2, 4, F(-3, 5)), ChernClass(0, 2, F(-7, 30)), Semicircle),
        (ChernClass(2, 2, F(-1, 2)), ChernClass(-4, -4, F(7, 3)), VerticalWall),
        (ChernClass(2, 0, -2), ChernClass(4, 0, -4), type(None)),
        (ChernClass(2, 0, -1), ChernClass(2, 2, 0), type(None)),
    ],
)
def test_wall_between_builds_at_most_two(v, w, kind):
    # the centre and radius_sq of a semicircle, the beta of a vertical wall,
    # nothing for None: every other quantity is an integer
    count, wall = built(wall_between, v, w)
    assert isinstance(wall, kind)
    assert count <= {Semicircle: 2, VerticalWall: 1}.get(kind, 0)


@pytest.mark.parametrize(
    "v, a, beta",
    [
        (ChernClass(2, 0, -5), F(1, 3), F(-5, 2)),
        (ChernClass(-2, 4, F(-3, 2)), F(0), F(1, 4)),
        (ChernClass(2, 0, -5), 0, -3),
        (ChernClass(4, 2, F(-3, 2)), F(1, 2), F(1, 2)),
    ],
)
def test_tilt_slope_builds_at_most_one(v, a, beta):
    # a and beta of type int or Fraction are read as they are; the slope is
    # the one quotient of integers, and an infinite slope builds nothing
    count, _ = built(tilt_slope, v, a, beta)
    assert count <= 1


def _catalog_trees():
    trees = [catalog.load_scenario(sid).tree for sid in catalog.list_scenarios()]
    return [t for t in trees if isinstance(t, TreeNode)]


@pytest.mark.parametrize("tree", _catalog_trees(), ids=lambda t: str(t.cls))
@pytest.mark.parametrize("a", [F(0), F(1, 50), F(1, 2), F(3)])
def test_hn_factors_at_builds_at_most_one_per_factor(tree, a):
    # one tilt slope per factor; the node decisions are signs of integers.
    # No two consecutive factors of these trees share a slope at a = 0, so
    # nothing is merged here (a merge adds one v2 sum: see the test below)
    checked = 0
    for j in range(-40, 8):
        try:
            count, factors = built(hn_factors_at, tree, a, F(j, 4))
        except ValueError:  # on a wall, or right of the vertical wall
            continue
        assert count <= len(factors), (a, F(j, 4))
        checked += 1
    assert checked > 0


def test_hn_factors_at_merge_builds_one_more():
    # the first two of the three factors merge into (6,-8,4), whose v2 is
    # one sum: three slopes and one sum
    count, factors = built(hn_factors_at, merging_tree(), F(0), F(-2))
    assert factors == [(ChernClass(6, -8, 4), 0), (ChernClass(-2, 6, -9), F(-1, 2))]
    assert count <= 4


def test_disc100_probe_budget():
    # (2,0,-25) at beta* = -6 on [1/100, 30]: 22 walls, 28 witnesses.
    #   6  checking the query (beta*, a_min, a_max, disc(v), mu(v), ch1^beta*(v))
    #  44  `_kept_candidates`: 15 in `_w0_bound`, one w2 per witness, one a_min
    #  56  `wall_between`, 2 for each of the 28 witnesses
    # 110  `wall_a_at`, 5 for each of the 22 walls
    #  22  the sort key -cross_a, one per wall
    # 238 in all, against 546 with `wall_between` in Fraction arithmetic.
    # On Python 3.12+ arithmetic with an int operand first builds a Fraction
    # of the int: 27 more (2 checking the query, 3 in `_w0_bound`, and in
    # `wall_a_at` 1 per wall for its /2), 265 in all.
    count, cands = built(enumerate_candidates, ChernClass(2, 0, -25), F(-6), F(1, 100), F(30))
    assert (len(cands), sum(len(c.witnesses) for c in cands)) == (22, 28)
    assert count <= (238 if sys.version_info < (3, 12) else 265)
