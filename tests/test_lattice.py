import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from eval_oracle import horner_eval_rational
from tiltwall.exactnum import QuadraticIrrational as QI, quad_eval
from tiltwall.lattice import (
    ChernClass,
    INF,
    LatticeError,
    SurfaceConfig,
    central_charge,
    chd_polynomial,
    class_add,
    discriminant,
    line_bundle_class,
    mu_slope,
    p_intercept,
    tilt_slope,
    twist,
)

F = Fraction
betas = st.fractions(min_value=-20, max_value=20, max_denominator=32)
ints = st.integers(min_value=-20, max_value=20)


def classes(draw_denominator=2):
    return st.builds(
        lambda a, b, c: ChernClass(2 * a, 2 * b, F(c, draw_denominator)),
        ints, ints, st.integers(min_value=-40, max_value=40),
    )


class TestSurfaceConfig:
    def test_presets(self):
        ppas = SurfaceConfig.preset("ppas")
        assert (ppas.l2, ppas.minimal_discriminant) == (2, 4)
        ab = SurfaceConfig.preset("abelian-(1,2)")
        assert (ab.l2, ab.v0_step) == (4, 4)
        with pytest.raises(KeyError):
            SurfaceConfig.preset("k3")

    def test_check_class(self):
        ppas = SurfaceConfig.preset("ppas")
        ppas.check_class(ChernClass(2, 0, F(-5)))
        ppas.check_class(ChernClass(0, 2, F(-1, 2)))
        with pytest.raises(LatticeError):
            ppas.check_class(ChernClass(1, 0, F(0)))
        with pytest.raises(LatticeError):
            ppas.check_class(ChernClass(2, 3, F(0)))
        with pytest.raises(LatticeError):
            ppas.check_class(ChernClass(2, 2, F(1, 3)))

    def test_json_round_trip(self):
        ppas = SurfaceConfig.preset("ppas")
        clone = SurfaceConfig.from_json(ppas.to_json())
        assert (clone.l2, clone.v0_step, clone.v1_step) == (2, 2, 2)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            SurfaceConfig(2, 2, 2, 0, 4)


class TestChernClass:
    def test_parse(self):
        assert ChernClass.parse("2,0,-5") == ChernClass(2, 0, F(-5))
        assert ChernClass.parse("2,0,-5/2") == ChernClass(2, 0, F(-5, 2))
        with pytest.raises(ValueError):
            ChernClass.parse("2,0")

    def test_json_round_trip(self):
        v = ChernClass(2, -4, F(7, 2))
        assert ChernClass.from_json(v.to_json()) == v

    @pytest.mark.parametrize("data", [[True, 0, "-5"], [2, False, "-5"], [2, 0, True]])
    def test_json_booleans_refused(self, data):
        with pytest.raises(ValueError):
            ChernClass.from_json(data)

    def test_involutions(self):
        v = ChernClass(2, -4, F(7, 2))
        assert class_add(v, ChernClass(-2, 4, F(-7, 2))) == ChernClass(0, 0, 0)


class TestTwistAndDiscriminant:
    def test_twist_values(self):
        t = twist(ChernClass(2, 0, -2), F(-3, 2))
        assert (t.t0, t.t1, t.t2) == (2, 3, F(1, 4))

    @given(classes(), betas)
    def test_discriminant_twist_invariant(self, v, beta):
        t = twist(v, beta)
        assert t.t1 * t.t1 - 2 * t.t0 * t.t2 == discriminant(v)

    @given(classes(), betas)
    def test_chd_polynomial_is_twisted_ch2(self, v, x):
        # evaluating at x recovers the twisted second character at beta = -x
        p = chd_polynomial(v)
        n, m = p.grid_value(x.numerator, x.denominator)
        assert Fraction(n, m) == horner_eval_rational(p, x) == twist(v, -x).t2

    @given(classes(), betas)
    # half-integral v2 and beta with v1 != 0: every factor of the integer forms counts
    @example(ChernClass(2, 2, F(-1, 2)), F(-3, 2))
    @example(ChernClass(-2, 4, F(-3, 2)), F(1, 4))
    def test_integer_forms_match_fraction_formulas(self, v, beta):
        assert discriminant(v) == v.v1 * v.v1 - 2 * v.v0 * v.v2
        assert twist(v, beta) == (
            v.v0, v.v1 - beta * v.v0, v.v2 - beta * v.v1 + beta * beta * v.v0 / 2
        )
        assert all(type(t) is Fraction for t in twist(v, beta))

    def test_examples(self):
        assert discriminant(ChernClass(2, 0, -5)) == 20
        assert discriminant(ChernClass(2, -2, 1)) == 0
        assert discriminant(ChernClass(4, -4, 2)) == 0
        assert discriminant(ChernClass(0, 2, -4)) == 4


class TestSlopes:
    def test_central_charge(self):
        re, im = central_charge(ChernClass(2, 0, -2), F(1, 2), F(-2))
        # twisted: t1 = 4, t2 = 2; re = -(2 - 1/2*2) = -1
        assert (re, im) == (-1, 4)
        with pytest.raises(ValueError):
            central_charge(ChernClass(2, 0, -2), F(-1), F(0))

    def test_tilt_slope_finite_and_infinite(self):
        assert tilt_slope(ChernClass(2, 0, -2), F(1, 2), F(-2)) == F(1, 4)
        assert tilt_slope(ChernClass(0, 0, 1), F(1), F(0)) == INF
        # twisted degree vanishes at beta = mu
        assert tilt_slope(ChernClass(2, 4, 0), F(1), F(2)) == INF

    def test_mu_slope(self):
        assert mu_slope(ChernClass(2, 4, 0)) == 2
        assert mu_slope(ChernClass(0, 2, -5)) == INF

    @given(
        classes(),
        betas,
        st.just(F(0)) | st.fractions(min_value=0, max_value=10, max_denominator=16),
    )
    # beta and a of denominators above 1 and a = 0, with v2 half-integral:
    # every factor of the integer form of `tilt_slope` counts
    @example(ChernClass(2, 2, F(-1, 2)), F(-3, 2), F(5, 4))
    @example(ChernClass(-2, 4, F(-3, 2)), F(1, 4), F(0))
    @example(ChernClass(4, -2, F(1, 2)), F(-7, 3), F(0))
    # ch1^beta(v) = 0 at beta = v1/v0 = 1/2: the slope is infinite
    @example(ChernClass(4, 2, F(-3, 2)), F(1, 2), F(0))
    def test_slope_sign_matches_charge(self, v, beta, a):
        re, im = central_charge(v, a, beta)
        s = tilt_slope(v, a, beta)
        if im == 0:
            assert s == INF
        else:
            assert s == -re / im


@st.composite
def intercept_classes(draw):
    """Classes of either preset with disc >= 0 and v0 < 0, = 0 or > 0
    (v1 != 0 when v0 = 0); v2 is within a few steps of the largest (v0 > 0)
    or smallest (v0 < 0) lattice value it may take, so disc = 0 comes up."""
    cfg = SurfaceConfig.preset(draw(st.sampled_from(["ppas", "abelian-(1,2)"])))
    den = cfg.v2_denominator
    v0 = cfg.v0_step * draw(st.integers(-3, 3))
    v1 = cfg.v1_step * draw(st.integers(-5, 5).filter(lambda k: v0 != 0 or k != 0))
    step = draw(st.integers(0, 6))
    if v0 == 0:
        v2 = F(draw(st.integers(-40, 40)), den)
    elif v0 > 0:
        v2 = F(math.floor(F(v1 * v1, 2 * v0) * den) - step, den)
    else:
        v2 = F(math.ceil(F(v1 * v1, 2 * v0) * den) + step, den)
    return ChernClass(v0, v1, v2)


class TestPIntercept:
    def test_rank_positive(self):
        assert p_intercept(ChernClass(2, 0, -1)) == QI(-1)

    def test_double_root(self):
        assert p_intercept(ChernClass(2, -4, 4)) == QI(-2)

    def test_negative_rank_takes_larger_root(self):
        p = p_intercept(ChernClass(-2, 4, -2))
        assert p == QI(-2) + QI.sqrt(2)  # roots -2 -+ sqrt(2), larger kept

    def test_torsion(self):
        assert p_intercept(ChernClass(0, 2, -5)) == QI(F(-5, 2))

    def test_irrational(self):
        assert p_intercept(ChernClass(2, 0, -2)) == -QI.sqrt(2)

    def test_errors(self):
        with pytest.raises(ValueError, match="no hyperbola"):
            p_intercept(ChernClass(0, 0, 1))
        with pytest.raises(ValueError, match="no real intercept"):
            p_intercept(ChernClass(2, 0, 1))

    @given(intercept_classes())
    @example(ChernClass(2, -4, 4))
    @example(ChernClass(-4, 4, -2))
    @example(ChernClass(0, -2, 3))
    def test_closed_form_is_the_chosen_root(self, v):
        """p is a root of chd(v)(-x) = ch2^p(v); for v0 != 0 the conjugate root
        lies right of it when v0 > 0 and left of it when v0 < 0, the two meet
        exactly when disc = 0, and v1 - v0*p = sqrt(disc)."""
        p, disc = p_intercept(v), discriminant(v)
        assert quad_eval(chd_polynomial(v), -p) == 0
        if v.v0 == 0:
            assert p == QI(v.v2 / v.v1)
            return
        conjugate = (v.v1 + QI.sqrt(disc)) * F(1, v.v0)
        assert conjugate >= p if v.v0 > 0 else conjugate <= p
        assert (conjugate == p) is (disc == 0)
        assert v.v1 - v.v0 * p == QI.sqrt(disc)


class TestLineBundles:
    @given(st.integers(min_value=-6, max_value=6))
    def test_disc_zero(self, k):
        for preset in ("ppas", "abelian-(1,2)"):
            cfg = SurfaceConfig.preset(preset)
            v = line_bundle_class(k, cfg)
            assert discriminant(v) == 0
            assert mu_slope(v) == k
