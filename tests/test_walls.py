import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from tiltwall import catalog, walls
from tiltwall.catalog import _crosses_exactly_along
from tiltwall.hntree import TreeNode
from tiltwall.lattice import (
    ChernClass,
    LatticeError,
    SurfaceConfig,
    discriminant,
    line_bundle_class,
    mu_slope,
    twist,
)
from tiltwall.walls import (
    Nesting,
    Semicircle,
    VerticalWall,
    _kept_candidates,
    _w0_bound,
    enumerate_candidates,
    nesting,
    wall_a_at,
    wall_between,
    wall_from_json,
)
from conftest import (
    equal_slope_height,
    fit_circle_through_heights,
    random_class,
    slope_crossing_oracle,
)
from walls_oracle import (
    brute_force_candidates,
    class_sub,
    fraction_candidate_pairs_for_w0,
    fraction_wall_between,
    loose_w0_bound,
    twist_crosses_exactly_along,
    wall_height_bound,
)

F = Fraction
ints = st.integers(min_value=-10, max_value=10)
small_classes = st.builds(
    lambda a, b, c: ChernClass(2 * a, 2 * b, F(c, 2)),
    ints, ints, st.integers(min_value=-20, max_value=20),
)


@st.composite
def wall_pairs(draw):
    """(v, w) for ``wall_between`` against its Fraction form.

    v2 and w2 have denominators 1, 2, 3, 5, 6 and 30 (the v2_denominator of
    ``THIRTIETHS``), ranks are negative, zero or positive, and w is drawn
    free, as an integer multiple of v (proportional: None), or with (w0, w1)
    a multiple of (v0, v1) and its own w2 (a vertical wall, or None).  Free
    draws also meet empty circles (None).
    """
    def rational():
        return F(draw(st.integers(-60, 60)), draw(st.sampled_from([1, 2, 3, 5, 6, 30])))

    v = ChernClass(draw(st.integers(-6, 6)), draw(st.integers(-8, 8)), rational())
    kind = draw(st.sampled_from(["free", "proportional", "vertical"]))
    if kind == "free":
        return v, ChernClass(draw(st.integers(-6, 6)), draw(st.integers(-8, 8)), rational())
    lam = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    w2 = lam * v.v2 if kind == "proportional" else rational()
    return v, ChernClass(lam * v.v0, lam * v.v1, w2)


class TestWallBetween:
    @given(wall_pairs())
    @settings(max_examples=300)
    # a semicircle, a vertical wall, proportional classes and an empty circle,
    # each with v2 and w2 of denominators above 1
    @example((ChernClass(-2, 4, F(-3, 5)), ChernClass(0, 2, F(-7, 30))))
    @example((ChernClass(2, 2, F(-1, 2)), ChernClass(-4, -4, F(7, 3))))
    @example((ChernClass(-2, 4, F(3, 5)), ChernClass(4, -8, F(-6, 5))))
    @example((ChernClass(2, 0, F(-1, 3)), ChernClass(2, 2, F(1, 30))))
    def test_matches_fraction_form(self, pair):
        v, w = pair
        wall = wall_between(v, w)
        assert wall == fraction_wall_between(v, w)
        values = () if wall is None else vars(wall).values()
        assert all(type(x) is Fraction for x in values)

    def test_known_wall_two_witnesses(self):
        v = ChernClass(2, 0, -2)
        expected = Semicircle(F(-3, 2), F(1, 4))
        assert wall_between(v, ChernClass(4, -4, 2)) == expected
        assert wall_between(v, ChernClass(2, -2, 1)) == expected

    def test_rank2_witness(self):
        wall = wall_between(ChernClass(2, 0, -5), ChernClass(4, -6, 4))
        assert wall == Semicircle(F(-7, 3), F(4, 9))

    def test_proportional_gives_none(self):
        assert wall_between(ChernClass(2, 0, -2), ChernClass(4, 0, -4)) is None
        assert wall_between(ChernClass(2, 0, -2), ChernClass(-2, 0, 2)) is None

    def test_vertical_wall(self):
        wall = wall_between(ChernClass(2, 0, -2), ChernClass(0, 0, 1))
        assert wall == VerticalWall(F(0))

    def test_empty_circle_gives_none(self):
        # equal-slope locus with negative radius squared: no real wall
        # pairing^2 = 4 < 16 = disc product, so radius_sq < 0
        assert wall_between(ChernClass(2, 0, -1), ChernClass(2, 2, 0)) is None

    @given(small_classes, small_classes)
    def test_sub_and_quotient_share_wall(self, v, w):
        assert wall_between(v, w) == wall_between(v, class_sub(v, w))

    @given(small_classes, small_classes)
    def test_radius_identity(self, v, w):
        wall = wall_between(v, w)
        if not isinstance(wall, Semicircle):
            return
        d01 = F(v.v0 * w.v1 - v.v1 * w.v0)
        pairing = v.v1 * w.v1 - v.v0 * w.v2 - v.v2 * w.v0
        assert wall.radius_sq * d01 * d01 == pairing * pairing - discriminant(
            v
        ) * discriminant(w)

    @given(small_classes, small_classes)
    def test_top_point_on_zero_slope_locus(self, v, w):
        wall = wall_between(v, w)
        if not isinstance(wall, Semicircle):
            return
        assert twist(v, wall.center).t2 - wall.radius_sq * v.v0 / 2 == 0

    @given(small_classes, small_classes)
    @settings(max_examples=60)
    def test_against_circle_fitting_oracle(self, v, w):
        """Fit the equal-slope locus through sampled points; must match."""
        wall = wall_between(v, w)
        if not isinstance(wall, Semicircle):
            return
        b1 = wall.center
        b2 = wall.center + F(1, 7)
        a1 = equal_slope_height(v, w, b1)
        a2 = equal_slope_height(v, w, b2)
        if a1 is None or a2 is None:
            return
        s, r2 = fit_circle_through_heights([(b1, a1), (b2, a2)])
        assert (s, r2) == (wall.center, wall.radius_sq)
        # a third point confirms the locus really is that circle
        b3 = wall.center - F(2, 5)
        a3 = equal_slope_height(v, w, b3)
        assert (b3 - s) ** 2 + 2 * a3 == r2


class TestWallGeometry:
    def test_degenerate_semicircle_rejected(self):
        with pytest.raises(ValueError):
            Semicircle(F(0), F(0))
        with pytest.raises(ValueError):
            Semicircle(F(0), F(-1))

    def test_wall_a_at(self):
        assert wall_a_at(Semicircle(F(-5, 2), F(9, 4)), F(-2)) == 1
        assert wall_a_at(Semicircle(F(-3, 2), F(1, 4)), F(-3, 2)) == F(1, 8)
        assert wall_a_at(Semicircle(F(-3, 2), F(1, 4)), F(0)) is None
        with pytest.raises(ValueError, match="no height"):
            wall_a_at(VerticalWall(F(0)), F(0))

    def test_json_round_trip(self):
        for wall in (Semicircle(F(-7, 3), F(4, 9)), VerticalWall(F(1, 2))):
            assert wall_from_json(wall.to_json()) == wall
            # "kind" may be left out
            data = wall.to_json()
            del data["kind"]
            assert wall_from_json(data) == wall

    @pytest.mark.parametrize("data", [
        {"kind": "vertical", "center": "-3/2", "radius_sq": "1/4"},
        {"kind": "semicircle", "beta": "1"},
        {"kind": "arc", "center": "-3/2", "radius_sq": "1/4"},
        {"center": "-3/2", "radius_sq": "1/4", "colour": "red"},
        {"center": "-3/2", "radius_sq": "1/4", "beta": "1"},
        {"center": "-3/2"},
        {},
    ], ids=["kind-mismatch", "kind-mismatch-vertical", "unknown-kind", "unknown-key",
            "both-forms", "missing-key", "empty"])
    def test_json_of_neither_form_refused(self, data):
        with pytest.raises(ValueError, match="exactly the keys"):
            wall_from_json(data)


class TestNesting:
    def test_concentric(self):
        r = nesting(Semicircle(F(-5, 2), F(5, 4)), Semicircle(F(-5, 2), F(1, 4)))
        assert r is Nesting.NESTED

    def test_offset_nested(self):
        r = nesting(Semicircle(F(-3), F(4)), Semicircle(F(-7, 3), F(4, 9)))
        assert r is Nesting.NESTED

    def test_equal(self):
        w = Semicircle(F(-3), F(4))
        assert nesting(w, w) is Nesting.EQUAL

    def test_disjoint_and_crossing(self):
        assert (
            nesting(Semicircle(F(0), F(1)), Semicircle(F(10), F(1)))
            is Nesting.DISJOINT
        )
        assert (
            nesting(Semicircle(F(0), F(4)), Semicircle(F(2), F(4)))
            is Nesting.CROSSING
        )

    def test_tangent_counts_as_crossing(self):
        # internally tangent at beta = 3: treated as non-strict, hence crossing
        r = nesting(Semicircle(F(0), F(9)), Semicircle(F(2), F(1)))
        assert r is Nesting.CROSSING

    def test_vertical_rejected(self):
        with pytest.raises(ValueError):
            nesting(VerticalWall(F(0)), Semicircle(F(0), F(1)))


class TestEnumeration:
    def test_precondition_errors(self):
        v = ChernClass(2, 0, -5)
        with pytest.raises(ValueError, match="accumulate"):
            enumerate_candidates(v, F(-2), F(0))
        with pytest.raises(ValueError, match="a_max"):
            enumerate_candidates(v, F(-2), F(1), F(1, 2))
        with pytest.raises(ValueError, match="wrong side"):
            enumerate_candidates(v, F(1), F(1, 100))
        with pytest.raises(ValueError, match="negative discriminant"):
            enumerate_candidates(ChernClass(2, 0, 1), F(-1), F(1, 100))
        with pytest.raises(ValueError, match="heart"):
            enumerate_candidates(ChernClass(0, -2, 1), F(-2), F(1, 100))

    @pytest.mark.parametrize("v", [ChernClass(2, 0, F(-26, 3)), ChernClass(3, 0, -5)])
    def test_off_lattice_class_refused(self, v):
        # off the lattice v - w need not be visited, and the pair filter
        # would drop walls; see the proof in ``enumerate_candidates``
        with pytest.raises(LatticeError):
            enumerate_candidates(v, F(-2), F(1, 50), None, PPAS)

    def test_all_walls_cross_segment(self):
        v = ChernClass(2, 0, -25)
        for c in enumerate_candidates(v, F(-6), F(1, 100), F(30)):
            assert F(1, 100) <= c.cross_a <= 30
            assert wall_a_at(c.wall, F(-6)) == c.cross_a

    def test_sorted_outermost_first(self):
        cands = enumerate_candidates(ChernClass(2, 0, -5), F(-2), F(1, 100), F(10))
        heights = [c.cross_a for c in cands]
        assert heights == sorted(heights, reverse=True)

    def test_witness_normalized_and_grouped(self):
        cands = enumerate_candidates(ChernClass(2, 0, -2), F(-3, 2), F(1, 100), F(10))
        assert len(cands) == 1
        assert cands[0].witness == min(cands[0].witnesses, key=lambda c: (c.v0, c.v1, c.v2))
        # both known decompositions appear among the witnesses
        assert ChernClass(0, 2, -3) in cands[0].witnesses  # quotient side of (2,-2,1)
        assert ChernClass(-2, 4, -4) in cands[0].witnesses  # quotient side of (4,-4,2)

    def test_pairwise_nesting_of_output(self):
        cands = enumerate_candidates(ChernClass(2, 0, -25), F(-6), F(1, 100), F(30))
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                assert nesting(cands[i].wall, cands[j].wall) is Nesting.NESTED

    def test_random_classes_never_crash(self):
        rng = random.Random(7)
        for _ in range(25):
            v = random_class(rng)
            if discriminant(v) < 0:
                continue
            if v.v0 > 0:
                beta = F(v.v1, v.v0) - 1
            elif v.v1 > 0:
                beta = F(-1)
            else:
                continue
            cands = enumerate_candidates(v, beta, F(1, 10), F(5))
            for c in cands:
                assert discriminant(c.witness) >= 0
                assert discriminant(class_sub(v, c.witness)) >= 0


def _outputs(cands):
    """Everything a query reports: wall, crossing height, witnesses, in order."""
    return [(c.wall, c.cross_a, c.witness, c.witnesses) for c in cands]


@st.composite
def small_queries(draw):
    """(cfg, v, beta*, a_min, a_max, strict) valid for enumerate_candidates.

    strict picks the brute-force oracle's discriminant-sum test (< or <=);
    the library must match both.  Ranks and degrees stay within a few
    lattice steps and beta* within 4 of mu(v), so the brute-force oracle's
    1/a_min window stays cheap.
    """
    cfg = SurfaceConfig.preset(draw(st.sampled_from(["ppas", "abelian-(1,2)"])))
    v0 = cfg.v0_step * draw(st.integers(-1, 1))
    v1 = cfg.v1_step * draw(st.integers(1 if v0 == 0 else -2, 2))
    den = cfg.v2_denominator
    v = ChernClass(v0, v1, F(draw(st.integers(-4 * den, 4 * den)), den))
    assume(discriminant(v) >= 0)
    offset = F(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if v0 == 0:
        beta = F(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
    else:
        beta = mu_slope(v) - offset if v0 > 0 else mu_slope(v) + offset
    a_min = F(1, draw(st.integers(10, 50)))
    a_max = draw(st.none() | st.integers(0, 40).map(lambda k: a_min + F(k, 4)))
    return cfg, v, beta, a_min, a_max, draw(st.booleans())


ABELIAN = SurfaceConfig.preset("abelian-(1,2)")
PPAS = SurfaceConfig.preset("ppas")


def _oracle_top(v, a_min, a_max, cfg):
    """The top for the brute force: a_max, or one above every wall of v."""
    return a_max if a_max is not None else max(a_min, wall_height_bound(v, cfg))


class TestRankWindow:
    """The two-sided w0 window against the loose one and the brute force."""

    def test_probe_window_is_small_and_independent_of_a_min(self):
        v = ChernClass(2, 0, -25)
        bounds = [_w0_bound(v, F(-6), a_min) for a_min in (F(1, 100), F(1, 1000))]
        assert bounds == [6, 6]
        assert loose_w0_bound(v, F(-6), F(1, 100), F(30)) == 7850

    @given(small_queries())
    @settings(max_examples=100, deadline=None)
    def test_never_wider_than_loose_bound(self, query):
        cfg, v, beta, a_min, a_max, _ = query
        a_max = _oracle_top(v, a_min, a_max, cfg)
        assert abs(v.v0) <= _w0_bound(v, beta, a_min) <= loose_w0_bound(v, beta, a_min, a_max)

    @given(small_queries())
    @settings(max_examples=60, deadline=None)
    @example((PPAS, ChernClass(2, 0, -5), F(-2), F(1, 20), None, False))
    @example((ABELIAN, ChernClass(-4, -8, 3), F(7, 2), F(1, 15), None, False))
    @example((ABELIAN, ChernClass(0, 8, 0), F(0), F(1, 20), F(5), True))
    @example((PPAS, ChernClass(0, 4, -8), F(-2), F(1, 20), None, False))
    # one wall whose witness (2, -2, 1) has the middle rank 2*w0 = v0
    @example((PPAS, ChernClass(4, -2, -2), F(-5, 2), F(1, 50), None, False))
    def test_matches_brute_force(self, query):
        cfg, v, beta, a_min, a_max, strict = query
        fast = enumerate_candidates(v, beta, a_min, a_max, cfg)
        top = _oracle_top(v, a_min, a_max, cfg)
        slow = brute_force_candidates(v, beta, a_min, top, cfg, strict=strict)
        assert _outputs(fast) == _outputs(slow)

    def test_catalog_queries_match_brute_force(self):
        # every scenario class on the segment `tiltwall check` searches
        queries = {
            (s.cls, s.config) for s in map(catalog.load_scenario, catalog.list_scenarios())
        }
        for cls, cfg in sorted(queries, key=str):
            args = (cls, F(-2), F(1, 100), F(10), cfg)
            assert _outputs(enumerate_candidates(*args)) == _outputs(
                brute_force_candidates(*args)
            )
        for k in (-2, -1, 1, 2):
            v = line_bundle_class(k, PPAS)
            args = (v, mu_slope(v) - 2, F(1, 100), F(10))
            assert enumerate_candidates(*args) == brute_force_candidates(*args) == []


@st.composite
def narrow_segments(draw):
    """(cfg, v, beta*, a_min) for a query whose segment has length 0 or 1/50.

    v has walls on the query line, and a_min is often the exact crossing
    height of one, so a segment end sits on the crossing-height window's
    boundary.
    """
    cfg, v, beta, _, _, _ = draw(small_queries())
    heights = [c.cross_a for c in enumerate_candidates(v, beta, F(1, 50), F(10), cfg)]
    assume(heights)
    a_min = draw(
        st.sampled_from(heights)
        | st.integers(10, 50).map(lambda n: F(1, n))
        | st.builds(F, st.integers(1, 24), st.integers(1, 8))
    )
    return cfg, v, beta, a_min


class TestCrossingHeightWindow:
    """The w2 window from the crossing height against the brute force."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("length", [F(0), F(1, 50)])
    @given(query=narrow_segments())
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    def test_narrow_segments_match_brute_force(self, query, length, strict):
        cfg, v, beta, a_min = query
        args = (v, beta, a_min, a_min + length, cfg)
        assert _outputs(enumerate_candidates(*args)) == _outputs(
            brute_force_candidates(*args, strict=strict)
        )

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        "cfg, v, beta, a_max",
        [
            # g = 0 pairs: w = (2, 0, w2) has the (rank, degree) of v/2
            (PPAS, ChernClass(4, 0, -10), F(-2), F(4)),
            (PPAS, ChernClass(4, 0, -6), F(-1), None),
            # w0 = 0 with v0 != 0: torsion subs (0, 2, w2)
            (PPAS, ChernClass(4, 0, -3), F(-1), None),
            # v0 = 0
            (PPAS, ChernClass(0, 6, -8), F(-2), None),
            (ABELIAN, ChernClass(0, 8, 0), F(0), None),
            # v0 < 0
            (PPAS, ChernClass(-2, 4, 6), F(1), None),
            (PPAS, ChernClass(-2, 4, F(21, 2)), F(1), F(5)),
            (PPAS, ChernClass(-4, 4, 6), F(0), F(5)),
        ],
    )
    def test_edge_cases_match_brute_force(self, cfg, v, beta, a_max, strict):
        fast = enumerate_candidates(v, beta, F(1, 20), a_max, cfg)
        assert fast
        top = _oracle_top(v, F(1, 20), a_max, cfg)
        slow = brute_force_candidates(v, beta, F(1, 20), top, cfg, strict=strict)
        assert _outputs(fast) == _outputs(slow)

    @pytest.mark.parametrize("a_min", [F(1, 100), F(1, 1000)])
    def test_probe_screening_count(self, monkeypatch, a_min):
        screened = 0
        screen = walls._screen_candidate

        def counted(*args):
            nonlocal screened
            screened += 1
            return screen(*args)

        monkeypatch.setattr(walls, "_screen_candidate", counted)
        cands = enumerate_candidates(ChernClass(2, 0, -25), F(-6), a_min, F(30))
        assert len(cands) == 22
        assert sum(len(c.witnesses) for c in cands) == 28
        assert screened == 54


# a lattice whose v2 reduces to denominators 3, 5, 6, 10, 15 and 30 as well
THIRTIETHS = SurfaceConfig(2, 2, 2, 30, 4, name="thirtieths")


@st.composite
def integer_window_queries(draw, on_lattice=False):
    """(cfg, v, beta*, a_min, a_max) for the integer search against its Fraction form.

    beta* has denominator 1, 2, 3 or 7, so it need not divide v2_denominator;
    v0 is negative, zero or positive, and a_max is often None.  v2 has
    denominator 1, 2, 3 or 5, which need not divide v2_denominator either,
    unless on_lattice, when v2 = k/v2_denominator.
    """
    cfg = draw(st.sampled_from([PPAS, ABELIAN, THIRTIETHS]))
    v0 = cfg.v0_step * draw(st.sampled_from([-1, 0, 1]))
    beta = F(draw(st.integers(-21, 21)), draw(st.sampled_from([1, 2, 3, 7])))
    # the least multiple of v1_step above beta*v0 keeps ch1^beta*(v) > 0
    v1 = cfg.v1_step * ((beta * v0) // cfg.v1_step + draw(st.integers(1, 6)))
    dd = cfg.v2_denominator if on_lattice else draw(st.sampled_from([1, 2, 3, 5]))
    if v0 == 0:
        v2 = F(draw(st.integers(-60, 60)), dd)
    else:
        # disc(v) = v1^2 - 2*v0*v2 >= 0 puts v2 on one side of v1^2/(2*v0)
        edge = F(v1 * v1, 2 * v0)
        nearest = math.floor(edge * dd) if v0 > 0 else math.ceil(edge * dd)
        v2 = F(nearest - (v0 // abs(v0)) * draw(st.integers(0, 40 * dd)), dd)
    v = ChernClass(v0, v1, v2)
    a_min = draw(st.sampled_from([F(1, 50), F(1, 13), F(2, 7), F(3)]))
    a_max = draw(st.none() | st.integers(0, 40).map(lambda k: a_min + F(k, 3)))
    return cfg, v, beta, a_min, a_max


def _lex(c: ChernClass) -> tuple:
    return (c.v0, c.v1, c.v2)


class TestIntegerWindow:
    """``_kept_candidates`` in integers against its Fraction form.

    The oracle in ``walls_oracle`` computes the same window from Fraction
    values of t, g, the half-line thresholds and the w2 bounds, and screens
    every point with ``discriminant`` and ``wall_between``.  It walks every
    rank of the ``_w0_bound`` window, and the library must return, in the
    same order, exactly the oracle's survivors w with w < v - w, on cfg's
    lattice or off it; so the library's rank loop, which stops at v0 // 2,
    is checked here and not assumed.
    """

    @staticmethod
    def oracle_classes(cfg, v, beta, a_min, a_max, w0):
        top = math.inf if a_max is None else a_max
        return [w for _, w, _ in fraction_candidate_pairs_for_w0(v, beta, a_min, top, cfg, w0)]

    @staticmethod
    def ranks(cfg, v, beta, a_min):
        d = _w0_bound(v, beta, a_min) - abs(v.v0)
        return [w0 for w0 in range(min(0, v.v0) - d, max(0, v.v0) + d + 1)
                if w0 % cfg.v0_step == 0]

    def assert_same_pairs(self, cfg, v, beta, a_min, a_max):
        fast = list(_kept_candidates(v, beta, a_min, a_max, cfg))
        slow = [
            w for w0 in self.ranks(cfg, v, beta, a_min)
            for w in self.oracle_classes(cfg, v, beta, a_min, a_max, w0)
        ]
        assert fast == [w for w in slow if _lex(w) < _lex(class_sub(v, w))]
        return len(fast)

    @given(integer_window_queries())
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    def test_same_pairs_as_fraction_form(self, query):
        self.assert_same_pairs(*query)

    @given(integer_window_queries(on_lattice=True))
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    @example((PPAS, ChernClass(2, 0, -25), F(-6), F(1, 100), F(30)))
    @example((THIRTIETHS, ChernClass(2, 0, F(-26, 3)), F(-2), F(1, 50), None))
    def test_oracle_survivors_pair_up(self, query):
        # the proof in ``enumerate_candidates``: on the lattice the survivors
        # of the whole rank window are closed under w -> v - w, each once
        cfg, v, beta, a_min, a_max = query
        survivors = [
            w for w0 in self.ranks(cfg, v, beta, a_min)
            for w in self.oracle_classes(cfg, v, beta, a_min, a_max, w0)
        ]
        assert len(set(survivors)) == len(survivors)
        assert {class_sub(v, w) for w in survivors} == set(survivors)

    @pytest.mark.parametrize(
        "cfg, v, beta, a_min, a_max",
        [
            # the disc-100 probe, with and without a top
            (PPAS, ChernClass(2, 0, -25), F(-6), F(1, 100), F(30)),
            (PPAS, ChernClass(2, 0, -25), F(-6), F(1, 1000), None),
            # a witness of the middle rank 2*w0 = v0
            (PPAS, ChernClass(4, -2, -2), F(-5, 2), F(1, 50), None),
            # beta* with denominators 2, 3 and 7
            (PPAS, ChernClass(2, 8, F(-51, 2)), F(-39, 2), F(1, 100), None),
            (PPAS, ChernClass(4, 2, -10), F(-4, 3), F(1, 50), None),
            (ABELIAN, ChernClass(4, 4, -12), F(-9, 7), F(1, 50), F(10)),
            # v0 < 0 and v0 = 0
            (ABELIAN, ChernClass(-4, -8, 3), F(7, 2), F(1, 15), None),
            (PPAS, ChernClass(0, 6, -8), F(-2, 3), F(1, 50), None),
            # v2 of denominator 2 = v2_denominator, and 1 below it
            (PPAS, ChernClass(2, 0, F(-17, 2)), F(-2), F(1, 50), None),
            (ABELIAN, ChernClass(-4, 4, 7), F(2, 7), F(1, 50), None),
            # v2 of denominators 3 and 5 on a lattice of denominator 30
            (THIRTIETHS, ChernClass(2, 0, F(-26, 3)), F(-2), F(1, 50), None),
            (THIRTIETHS, ChernClass(-2, 2, F(36, 5)), F(2, 7), F(1, 50), None),
        ],
    )
    def test_fixed_queries_keep_candidates(self, cfg, v, beta, a_min, a_max):
        assert self.assert_same_pairs(cfg, v, beta, a_min, a_max) > 0


class TestWindowDecides:
    """The checks the window makes, so that the screen need not.

    ``walls._kept_candidates`` proves each of them; here every
    witness of every returned wall is held to them.
    """

    @given(small_queries())
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
    )
    @example((PPAS, ChernClass(2, 0, -25), F(-6), F(1, 100), F(30), False))
    @example((PPAS, ChernClass(2, 0, -5), F(-2), F(1, 100), None, False))
    @example((PPAS, ChernClass(2, 8, F(-51, 2)), F(-20), F(1, 100), None, False))
    @example((ABELIAN, ChernClass(-4, -8, 3), F(7, 2), F(1, 15), None, False))
    def test_every_witness_meets_the_deleted_checks(self, query):
        cfg, v, beta, a_min, a_max, _ = query
        cands = enumerate_candidates(v, beta, a_min, a_max, cfg)
        assume(cands)  # most drawn queries have no wall
        for c in cands:
            assert a_min <= c.cross_a and (a_max is None or c.cross_a <= a_max)
            assert wall_a_at(c.wall, beta) == c.cross_a
            top_v = v.v1 - c.wall.center * v.v0
            for w in c.witnesses:
                disc_w, disc_q = discriminant(w), discriminant(class_sub(v, w))
                assert wall_between(v, w) == c.wall
                assert disc_w >= 0 and disc_q >= 0
                assert disc_w + disc_q < discriminant(v)
                assert 0 < w.v1 - c.wall.center * w.v0 < top_v


class TestUnboundedSearch:
    """a_max=None searches the whole half-line a >= a_min, and stays finite."""

    @given(small_queries())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_at_wall_height_bound(self, query):
        cfg, v, beta, a_min, _, strict = query
        fast = enumerate_candidates(v, beta, a_min, None, cfg)
        top = _oracle_top(v, a_min, None, cfg)
        slow = brute_force_candidates(v, beta, a_min, top, cfg, strict=strict)
        assert _outputs(fast) == _outputs(slow)

    @given(small_queries())
    @settings(max_examples=100, deadline=None)
    def test_matches_a_huge_top(self, query):
        cfg, v, beta, a_min, _, _ = query
        args = (v, beta, a_min)
        assert _outputs(enumerate_candidates(*args, None, cfg)) == _outputs(
            enumerate_candidates(*args, 10**7, cfg)
        )

    @given(small_queries())
    @settings(max_examples=25, deadline=None)
    def test_oracle_top_is_high_enough(self, query):
        cfg, v, beta, a_min, _, strict = query
        top = _oracle_top(v, a_min, None, cfg)
        assert _outputs(brute_force_candidates(v, beta, a_min, top, cfg, strict=strict)) == (
            _outputs(brute_force_candidates(v, beta, a_min, 2 * top, cfg, strict=strict))
        )

    @pytest.mark.parametrize(
        "v, beta, a_min, walls_found",
        [
            (ChernClass(2, 8, F(-51, 2)), F(-20), F(1, 100), 17),
            (ChernClass(6, 4, F(-47, 2)), F(-23), F(1, 10), 10),
        ],
    )
    def test_outermost_walls_are_found(self, v, beta, a_min, walls_found):
        # these walls rose above the old default top, max(1, disc(v)) + a_min
        cands = enumerate_candidates(v, beta, a_min)
        assert len(cands) == walls_found
        assert _outputs(cands) == _outputs(enumerate_candidates(v, beta, a_min, 10000))
        assert cands[0].cross_a > discriminant(v) + a_min

    def test_outermost_wall_and_witness(self):
        top = enumerate_candidates(ChernClass(2, 8, F(-51, 2)), F(-20), F(1, 100))[0]
        assert (top.cross_a, top.witness) == (F(805, 4), ChernClass(0, 2, F(-69, 2)))


def _catalog_witness_pairs():
    """(class, witness, wall) for every witness of a catalog query or tree node."""
    pairs = []
    for s in map(catalog.load_scenario, catalog.list_scenarios()):
        for c in enumerate_candidates(s.cls, F(-2), F(1, 100), F(10), s.config):
            pairs.extend((s.cls, w, c.wall) for w in c.witnesses)
        nodes = [s.tree] if isinstance(s.tree, TreeNode) else []
        while nodes:
            node = nodes.pop()
            pairs.extend((node.cls, child.cls, node.wall) for child in node.children)
            nodes.extend(c for c in node.children if isinstance(c, TreeNode))
    return pairs


class TestExactConfirmation:
    """The exact wall predicate `check` uses, against its Fraction form
    (``twist_crosses_exactly_along``) and the grid oracle."""

    @staticmethod
    def _both(v, w, wall):
        exact = _crosses_exactly_along(v, w, wall)
        assert exact == twist_crosses_exactly_along(v, w, wall)
        assert exact == slope_crossing_oracle(v, w, wall, F(1, 64))
        return exact

    def _confirms_only_the_wall(self, v, w, wall, inflation=F(1, 32)):
        assert self._both(v, w, wall)
        assert not self._both(v, w, Semicircle(wall.center + F(1, 32), wall.radius_sq))
        assert not self._both(v, w, Semicircle(wall.center, wall.radius_sq + inflation))

    def test_catalog_witnesses(self):
        pairs = _catalog_witness_pairs()
        assert len(pairs) == 34
        for v, w, wall in pairs:
            self._confirms_only_the_wall(v, w, wall)

    @given(small_classes, small_classes)
    @settings(max_examples=40, deadline=None)
    # v2 and w2 half-integral: q and r of the integer check both count
    @example(ChernClass(2, -6, F(-9, 2)), ChernClass(-4, -6, F(-9, 2)))
    def test_drawn_pairs(self, v, w):
        wall = wall_between(v, w)
        # the grid oracle's cost grows with the radius, and its cells hide an
        # inflation of 1/32 once radius_sq passes about 2
        assume(isinstance(wall, Semicircle) and wall.radius_sq <= 16)
        self._confirms_only_the_wall(v, w, wall, inflation=F(1))

    def test_proportional_classes_rejected(self):
        # D = 0: the slopes agree on the whole plane, which is no wall
        v, wall = ChernClass(2, 0, -2), Semicircle(F(-3, 2), F(1, 4))
        for w in (v, ChernClass(4, 0, -4), ChernClass(-2, 0, 2)):
            assert not self._both(v, w, wall)

    @pytest.mark.parametrize("beta0", range(-5, 5))
    def test_rejects_a_wall_meeting_the_true_one(self, beta0):
        # a wrong wall meets the true one above beta0 and nowhere else
        v, w = ChernClass(2, 0, -5), ChernClass(2, -2, 1)
        wall = wall_between(v, w)
        center = wall.center - 1
        radius_sq = (beta0 - center) ** 2 - (beta0 - wall.center) ** 2 + wall.radius_sq
        assert not self._both(v, w, Semicircle(center, radius_sq))


class TestOracle:
    def test_confirms_known_wall(self):
        v, w = ChernClass(2, 0, -2), ChernClass(4, -4, 2)
        wall = wall_between(v, w)
        assert slope_crossing_oracle(v, w, wall, F(1, 64))

    def test_rejects_perturbed_wall(self):
        v, w = ChernClass(2, 0, -2), ChernClass(4, -4, 2)
        wall = wall_between(v, w)
        shifted = Semicircle(wall.center + F(1, 32), wall.radius_sq)
        assert not slope_crossing_oracle(v, w, shifted, F(1, 64))
        inflated = Semicircle(wall.center, wall.radius_sq + F(1, 32))
        assert not slope_crossing_oracle(v, w, inflated, F(1, 64))

    def test_vertical_wall_with_skyscraper(self):
        v, w = ChernClass(2, 0, -2), ChernClass(0, 0, 1)
        wall = wall_between(v, w)
        assert wall == VerticalWall(F(0))
        assert slope_crossing_oracle(v, w, wall, F(1, 64))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            slope_crossing_oracle(
                ChernClass(2, 0, -2), ChernClass(4, -4, 2), Semicircle(F(-3, 2), F(1, 4)), 0
            )
