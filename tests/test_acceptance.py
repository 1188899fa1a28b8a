"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  All equality checks are exact unless a runtime
budget is stated.
"""

import random
import time
from fractions import Fraction

from tiltwall.exactnum import QuadPoly, QuadraticIrrational as QI, quad_eval
from tiltwall.hntree import (
    PointOnWallError,
    assemble_chd0,
    assemble_chd1,
    classify_breakpoints,
    hn_factors_at,
    tree_leaves,
    trivial_chd,
)
from tiltwall.lattice import ChernClass, chd_polynomial, discriminant, mu_slope, twist
from tiltwall.walls import (
    Nesting,
    Semicircle,
    enumerate_candidates,
    nesting,
    wall_between,
)
from tiltwall import catalog
from conftest import random_class, random_disc0_class, slope_crossing_oracle

F = Fraction


def _criterion(n, description):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {n}: FAIL  {description}")
                raise
            print(f"\ncriterion {n}: PASS  {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@_criterion(1, "wall exactness on the two-point class")
def test_criterion_1_wall_exactness():
    v = ChernClass(2, 0, -2)
    expected = Semicircle(F(-3, 2), F(1, 4))
    assert wall_between(v, ChernClass(4, -4, 2)) == expected
    assert wall_between(v, ChernClass(2, -2, 1)) == expected


@_criterion(2, "enumeration completeness on the known wall pictures")
def test_criterion_2_enumeration_completeness():
    one = enumerate_candidates(ChernClass(2, 0, -4), F(-2), F(1, 100), F(10))
    assert [(c.wall.center, c.wall.radius_sq, c.cross_a) for c in one] == [
        (F(-5, 2), F(9, 4), F(1))
    ]

    three = enumerate_candidates(ChernClass(2, 0, -5), F(-2), F(1, 100), F(10))
    assert [(c.wall.center, c.wall.radius_sq, c.cross_a) for c in three] == [
        (F(-3), F(4), F(3, 2)),
        (F(-5, 2), F(5, 4), F(1, 2)),
        (F(-7, 3), F(4, 9), F(1, 6)),
    ]

    n3 = enumerate_candidates(ChernClass(2, 0, -3), F(-7, 4), F(1, 100), F(10))
    assert Semicircle(F(-7, 4), F(1, 16)) in [c.wall for c in n3]


@_criterion(3, "zero-discriminant classes admit no walls (100 random classes)")
def test_criterion_3_disc0_rigidity():
    rng = random.Random(11)
    # catalog classes with zero discriminant first
    fixed = [
        ChernClass(2, -2, 1), ChernClass(4, -4, 2), ChernClass(2, -4, 4),
        ChernClass(8, -12, 9), ChernClass(10, -20, 20), ChernClass(8, -4, 1),
    ]
    checked = 0
    for v in fixed:
        mu = mu_slope(v)
        for offset in (F(1, 3), F(1)):
            assert enumerate_candidates(v, mu - offset, F(1, 100), F(2)) == []
    for _ in range(100):
        v = random_disc0_class(rng)
        assert discriminant(v) == 0
        mu = mu_slope(v)
        offset = F(rng.randint(1, 6), 3)
        cands = enumerate_candidates(v, mu - offset, F(1, 25), F(2))
        assert cands == [], (v, offset)
        checked += 1
    assert checked == 100


@_criterion(4, "catalog function regressions with exact breakpoints")
def test_criterion_4_function_regressions():
    done = 0
    for sid in catalog.list_scenarios():
        scenario = catalog.load_scenario(sid)
        if scenario.expected_chd0 is None:
            continue
        fn = assemble_chd0(scenario.tree)
        assert fn == scenario.expected_chd0, sid
        assert fn.check_continuity(), sid
        done += 1
    assert done >= 10

    # irrational breakpoint for the two-point trivial chamber function
    fn = trivial_chd(ChernClass(2, 0, -2))
    assert fn.breakpoints == [QI.sqrt(2)]
    assert fn.pieces == [QuadPoly(0), QuadPoly(-2, 0, 1)]


@_criterion(5, "derivative jumps at breakpoints, symbolic and by evaluation")
def test_criterion_5_critical_points():
    smooth = ("ppas-ideal-2", "ppas-ideal-4-collinear", "abelian12-ideal-point")
    for sid in smooth:
        for report in classify_breakpoints(catalog.load_scenario(sid).tree):
            assert report.derivative_jump == QI(0) and report.differentiable, sid

    for sid, expect_overlap in (("ppas-ideal-3-collinear", False), ("ppas-ideal-5-W2", True)):
        tree = catalog.load_scenario(sid).tree
        by_x = {r.x: r for r in classify_breakpoints(tree)}
        report = by_x[QI(2)]
        assert report.derivative_jump == QI(2)
        assert report.overlap is expect_overlap
        # symbolic: sum of sqrt(disc) over the contributing final vertices
        total = QI(0)
        for leaf in report.contributing_leaves:
            total = total + QI.sqrt(discriminant(leaf.cls))
        assert total == QI(2)
        # by evaluation: exact one-sided derivatives of the assembled pieces
        fn = assemble_chd0(tree)
        i = fn.breakpoints.index(QI(2))
        left = quad_eval(fn.pieces[i].derivative(), QI(2))
        right = quad_eval(fn.pieces[i + 1].derivative(), QI(2))
        assert right - left == QI(2)
    two_leaf = {r.x: r for r in classify_breakpoints(
        catalog.load_scenario("ppas-ideal-5-W2").tree)}[QI(2)]
    assert len(two_leaf.contributing_leaves) == 2


@_criterion(6, "identity suites over 1000 random classes and catalog trees")
def test_criterion_6_identity_suites():
    rng = random.Random(23)

    # twist invariance of the discriminant, 1000 random lattice classes
    for _ in range(1000):
        v = random_class(rng)
        beta = F(rng.randint(-40, 40), rng.randint(1, 8))
        t = twist(v, beta)
        assert t.t1 * t.t1 - 2 * t.t0 * t.t2 == discriminant(v)

    # top point of every produced wall lies on the zero-slope locus of v
    produced = 0
    while produced < 1000:
        v, w = random_class(rng), random_class(rng)
        wall = wall_between(v, w)
        if not isinstance(wall, Semicircle):
            continue
        assert twist(v, wall.center).t2 - wall.radius_sq * v.v0 / 2 == 0
        produced += 1

    trees = [
        s for s in map(catalog.load_scenario, catalog.list_scenarios())
        if s.tree is not None and not s.trivial
    ]

    # alternating identity on every piece of every catalog tree
    for scenario in trees:
        chd0, chd1 = assemble_chd0(scenario.tree), assemble_chd1(scenario.tree)
        root_poly = chd_polynomial(scenario.tree.cls)
        for p0, p1 in zip(chd0.pieces, chd1.pieces):
            assert p0 - p1 == root_poly

    # reflection is an involution and swaps the structure-sheaf pair
    for scenario in map(catalog.load_scenario, catalog.list_scenarios()):
        if scenario.expected_chd0 is not None:
            fn = scenario.expected_chd0
            assert fn.reflect().reflect() == fn
    ox = catalog.load_scenario("ppas-structure-sheaf").expected_chd0
    dual = ox.reflect()
    assert dual.pieces == [QuadPoly(0, 0, 1), QuadPoly(0)]
    assert dual.reflect() == ox

    # pairwise nesting of candidate walls for a wall-rich class
    cands = enumerate_candidates(ChernClass(2, 0, -25), F(-6), F(1, 100), F(30))
    assert len(cands) >= 10
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            assert nesting(cands[i].wall, cands[j].wall) is Nesting.NESTED

    # slope monotonicity of HN factors at 50 random off-wall points per tree
    for scenario in trees:
        v = scenario.tree.cls
        mu = mu_slope(v) if v.v0 > 0 else None
        hits = 0
        while hits < 50:
            beta = F(rng.randint(-64, 64), 8)
            a = F(rng.randint(1, 40), 16)
            if mu is not None and beta >= mu:
                continue
            try:
                factors = hn_factors_at(scenario.tree, a, beta)
            except PointOnWallError:
                continue
            slopes = [s for _, s in factors]
            assert slopes == sorted(slopes, reverse=True), (scenario.id, a, beta)
            assert len(set(slopes)) == len(slopes)
            hits += 1


@_criterion(7, "independent slope-crossing oracle at grid 1/64, under 30 s")
def test_criterion_7_oracle_cross_check():
    start = time.monotonic()
    cases = [
        (ChernClass(2, 0, -4), F(-2)),
        (ChernClass(2, 0, -5), F(-2)),
        (ChernClass(2, 0, -3), F(-7, 4)),
    ]
    confirmed = 0
    for v, beta in cases:
        for cand in enumerate_candidates(v, beta, F(1, 100), F(10)):
            assert slope_crossing_oracle(v, cand.witness, cand.wall, F(1, 64))
            shifted = Semicircle(cand.wall.center + F(1, 32), cand.wall.radius_sq)
            assert not slope_crossing_oracle(v, cand.witness, shifted, F(1, 64))
            confirmed += 1
    assert confirmed == 6  # 1 wall (n=4) + 3 walls (n=5) + 2 walls (n=3 query)
    assert time.monotonic() - start < 30


@_criterion(8, "scale probe: disc 100 at a_min 1/100 under 10 s")
def test_criterion_8_scale_probe():
    v = ChernClass(2, 0, -25)
    assert discriminant(v) == 100
    start = time.monotonic()
    single = enumerate_candidates(v, F(-6), F(1, 100), F(30))
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"single-thread enumeration took {elapsed:.1f}s"
    assert len(single) >= 20
