import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from compare_oracle import case_sign, enclosure_compare
from conftest import fractions_built
from eval_oracle import horner_eval_rational, ring_quad_eval
from qi_oracle import QuadraticIrrational as OracleQI, quad_eval as oracle_quad_eval
from squarefree_oracle import is_prime, squarefree_decompose_sqrt
from tiltwall import exactnum
from tiltwall.exactnum import (
    QuadPoly,
    QuadraticIrrational as QI,
    parse_rational,
    quad_eval,
    squarefree_decompose,
)
from tiltwall.hntree import PiecewiseQuadratic
from tiltwall.svgplot import rational_grid, render_function_svg

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


def parts(x: QI) -> tuple:
    return (x.a, x.b, x.d)


def assert_canonical(z: QI) -> None:
    """z is stored as (A + B*sqrt(d))/C with C > 0, gcd(A, B, C) = 1, and
    B == 0 iff d == 0, with d squarefree and not 1."""
    assert all(type(n) is int for n in (z._A, z._B, z._C, z._d))
    assert z._C > 0 and math.gcd(z._A, z._B, z._C) == 1
    assert (z._B == 0) is (z.d == 0) and z.d != 1


def assert_correctly_rounded(x: QI) -> None:
    """float(x) is the float nearest x.  A rational, which may be a tie, has
    the float of its Fraction.  An irrational lies strictly between the
    midpoints of float(x) and its two neighbours.  The exact reference is the
    bracket n/2^2000 < x < (n + 1)/2^2000 with n = floor_times(2^2000).
    Every midpoint of two floats is a multiple of 2^-1075, so none lies
    strictly inside the bracket, and the bracket decides the comparison."""
    f = float(x)
    if x.is_rational:
        assert f == float(x.a)
        return
    n = x.floor_times(2**2000)
    below = (Fraction(f) + Fraction(math.nextafter(f, -math.inf))) / 2
    above = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    assert below <= Fraction(n, 2**2000) and Fraction(n + 1, 2**2000) <= above


class TestSquarefreeDecompose:
    def test_basic(self):
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(4) == (2, 1)
        assert squarefree_decompose(8) == (2, 2)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(45) == (3, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)
        with pytest.raises(ValueError):
            squarefree_decompose(-4)

    @given(st.integers(min_value=1, max_value=100000))
    def test_reconstruction_and_squarefreeness(self, n):
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        for p in range(2, 100):
            if p * p > d:
                break
            assert d % (p * p) != 0

    def test_matches_oracle_exhaustively(self):
        for n in range(1, 200_001):
            assert squarefree_decompose(n) == squarefree_decompose_sqrt(n), n

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12))
    def test_matches_oracle_up_to_1e12(self, n):
        assert squarefree_decompose(n) == squarefree_decompose_sqrt(n)

    # q*q <= r puts q below the cube root of q*r, so the loop divides q out;
    # q*q > r leaves q*r whole for the final square test.
    BELOW, ABOVE = (997, 1_000_003), (1009, 1_000_003)
    PRIMES = (2, 3, 997, 1009, 10_007, 1_000_003)
    NEAR_5E10 = (49_999_999_967, 50_000_000_021)

    def test_structured_cases_match_oracle(self):
        (q1, r1), (q2, r2) = self.BELOW, self.ABOVE
        assert q1**3 <= q1 * r1 and q2**3 > q2 * r2
        primes = self.PRIMES + self.NEAR_5E10
        assert all(is_prime(p) for p in primes)
        cases = [(p, (1, p)) for p in primes]
        for q in self.PRIMES:
            cases += [(q * q, (q, 1)), (q**3, (q, q))]
            for r in self.PRIMES:
                if q != r:
                    cases += [
                        (q * r, (1, q * r)),
                        (q * q * r, (q, r)),
                        (q * q * r * r, (q * r, 1)),
                    ]
        for n, expected in cases:
            assert squarefree_decompose(n) == expected == squarefree_decompose_sqrt(n), n


class TestCanonicalForm:
    def test_constructor_embeds_one_rational(self):
        x = QI(Fraction(3, 2))
        assert parts(x) == (Fraction(3, 2), 0, 0) and x.is_rational
        with pytest.raises(TypeError):
            QI(0, 1, 2)

    def test_square_radicand_collapses(self):
        assert parts(QI.sqrt(4)) == (2, 0, 0)
        assert parts(QI.sqrt(Fraction(9, 4))) == (Fraction(3, 2), 0, 0)
        assert 1 + 3 * QI.sqrt(1) == QI(4)

    def test_square_factor_extracted(self):
        assert parts(QI.sqrt(8)) == (0, 2, 2)
        assert parts(QI.sqrt(45)) == (0, 3, 5)
        assert QI.sqrt(8) == 2 * QI.sqrt(2)

    def test_zero_coefficient_clears_radicand(self):
        x = 3 + 0 * QI.sqrt(7)
        assert x.d == 0 and x.is_rational

    def test_sqrt(self):
        assert QI.sqrt(4) == QI(2)
        assert parts(QI.sqrt(Fraction(1, 2))) == (0, Fraction(1, 2), 2)
        assert QI.sqrt(0) == QI(0)
        with pytest.raises(ValueError):
            QI.sqrt(-1)

    def test_immutable(self):
        x = 1 + QI.sqrt(2)
        for name, value in (("a", Fraction(2)), ("b", Fraction(0)), ("d", 3), ("c", 1)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)


class TestSignAndOrder:
    def test_both_negative_case(self):
        # -2 vs -sqrt(5): squaring flips, -2 is larger
        assert QI(-2) > -QI.sqrt(5)
        assert (QI(-2) + QI.sqrt(5)).sign() == 1

    def test_sign_cases(self):
        assert QI(0).sign() == 0
        assert (1 - QI.sqrt(2)).sign() < 0  # 1 - 1.414...
        assert (2 - QI.sqrt(2)).sign() > 0
        assert (-1 + QI.sqrt(2)).sign() > 0
        assert (QI(2) - QI.sqrt(4)).sign() == 0

    def test_cross_field_compare(self):
        assert QI.sqrt(2) < QI.sqrt(3)
        assert QI(1) + QI.sqrt(2) < QI.sqrt(6)
        assert QI.sqrt(2) + 1 > QI.sqrt(5)

    def test_cross_field_compare_refines(self):
        # 1.41421356757 against sqrt(2) = 1.41421356237: 16-bit dyadic
        # enclosures of the two overlap, 32-bit ones are disjoint
        x, y = Fraction(-31783724, 10**8) + QI.sqrt(3), QI.sqrt(2)
        assert x.compare(y) == 1 and y.compare(x) == -1

    @given(rationals, st.fractions(min_value=-10, max_value=10, max_denominator=16),
           st.integers(min_value=0, max_value=50))
    def test_sign_matches_float(self, a, b, d):
        x = a + b * QI.sqrt(d)
        approx = float(x)
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1)

    @given(rationals, rationals)
    def test_order_antisymmetry(self, a, b):
        x, y = a + QI.sqrt(2), b + QI.sqrt(3)
        assert x.compare(y) == -y.compare(x)

    def test_different_field_arithmetic_rejected(self):
        with pytest.raises(ValueError, match="quadratic fields"):
            QI.sqrt(2) + QI.sqrt(3)


@st.composite
def operand_pairs(draw):
    """Two values a + b*QI.sqrt(n), radicands up to 10**11, squarefree or not.

    The second operand shares the first one's radicand, lives in the same
    field through a square multiple of it, has a radicand of its own, is
    rational, or is a near tie: its rational part is a float approximation
    of the first value minus its irrational part.
    """
    coeffs = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
    n1 = draw(st.integers(min_value=0, max_value=10**11))
    x = draw(coeffs) + draw(coeffs) * QI.sqrt(n1)
    kind = draw(st.sampled_from(["same", "square-multiple", "other", "rational", "near"]))
    if kind == "same":
        n2 = n1
    elif kind == "square-multiple":
        n2 = n1 * draw(st.integers(min_value=2, max_value=300)) ** 2
    elif kind == "rational":
        n2 = draw(st.integers(min_value=0, max_value=300)) ** 2
    else:
        n2 = draw(st.integers(min_value=0, max_value=10**11))
    b2 = draw(coeffs)
    if kind == "near":
        target = float(x) - float(b2) * math.sqrt(n2)
        a2 = Fraction(target).limit_denominator(draw(st.sampled_from([10**6, 10**12, 10**18])))
    else:
        a2 = draw(coeffs)
    return x, a2 + b2 * QI.sqrt(n2)


class TestOrderOracle:
    """The integer sign rule against the enclosure and case-analysis oracle."""

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs())
    # the pair on which 16-bit enclosures overlapped
    @example((Fraction(-31783724, 10**8) + QI.sqrt(3), QI.sqrt(2)))
    # Pell convergents of sqrt(2), above (p^2 - 2q^2 = 1) and below (= -1)
    @example((QI(Fraction(665857, 470832)), QI.sqrt(2)))
    @example((QI(Fraction(275807, 195025)), QI.sqrt(2)))
    # across fields: u = sqrt(2) - sqrt(3) < 0 with R = 0, and R = 1
    # against u = sqrt(2) - sqrt(5), where R^2 - u^2 = 2*sqrt(10) - 6 > 0
    @example((QI.sqrt(2), QI.sqrt(3)))
    @example((QI.sqrt(2) + 1, QI.sqrt(5)))
    def test_compare_matches_enclosure_oracle(self, pair):
        x, y = pair
        expected = enclosure_compare(x, y)
        assert x.compare(y) == expected and y.compare(x) == -expected
        assert (x < y, x == y, x > y) == (expected < 0, expected == 0, expected > 0)
        assert x.sign() == case_sign(x.a, x.b, x.d) and y.sign() == case_sign(y.a, y.b, y.d)
        if x.d == 0 or y.d == 0 or x.d == y.d:
            assert (x - y).sign() == expected


class TestArithmetic:
    @given(rationals, rationals, rationals, rationals)
    def test_ring_ops_match_float(self, a1, b1, a2, b2):
        x, y = a1 + b1 * QI.sqrt(5), a2 + b2 * QI.sqrt(5)
        assert math.isclose(float(x + y), float(x) + float(y), abs_tol=1e-6)
        assert math.isclose(float(x * y), float(x) * float(y), abs_tol=1e-4)
        assert math.isclose(float(x - y), float(x) - float(y), abs_tol=1e-6)

    def test_float_beyond_range_raises_overflow(self):
        # as float(Fraction(10**400)) does; both parts of the last one are
        # floats, but their sum, about 2.4e308, is not
        for x in [QI(10**400), 10**400 + QI.sqrt(2), 10**308 + 10**308 * QI.sqrt(2)]:
            with pytest.raises(OverflowError):
                float(x)
        assert float(10**307 + 10**307 * QI.sqrt(2)) == pytest.approx(2.414e307, rel=1e-3)

    def test_rational_mixing(self):
        assert parts(QI.sqrt(2) * 2) == (0, 2, 2)
        assert parts(1 + QI.sqrt(2)) == (1, 1, 2)
        assert parts(3 - QI.sqrt(2)) == (3, -1, 2)

    def test_conjugate_product_is_rational(self):
        x = 3 + 2 * QI.sqrt(7)
        assert x * (3 - 2 * QI.sqrt(7)) == QI(9 - 4 * 7)


class TestParseRational:
    def test_exponent_up_to_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit}") == 10**limit
        assert parse_rational(f" -2.5E-{limit} ") == Fraction(-25, 10 ** (limit + 1))
        for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "-1e10000000", "1.5e+1_000_000"):
            with pytest.raises(ValueError, match="decimal exponent beyond the int-digit limit"):
                parse_rational(text)


class TestCanonicalOps:
    BIG_PRIME = 1_000_000_000_039  # above 10**12

    def test_ring_ops_never_decompose(self, monkeypatch):
        d = self.BIG_PRIME
        r = QI.sqrt(d)
        x, y = Fraction(1, 3) + 2 * r, -5 + Fraction(7, 2) * r
        p = QuadPoly(1, -2, 3)

        def refuse(n):
            raise RuntimeError(f"ring op factored radicand {n}")

        monkeypatch.setattr(exactnum, "squarefree_decompose", refuse)
        conj = x.a - x.b * r
        sums = [x + y, x - y, -x, 3 - x, x + Fraction(1, 2)]
        products = [x * y, 2 * x, x * conj, quad_eval(p, x), quad_eval(p, 7)]
        monkeypatch.undo()
        assert [parts(z) for z in sums] == [
            (Fraction(-14, 3), Fraction(11, 2), d),
            (Fraction(16, 3), Fraction(-3, 2), d),
            (Fraction(-1, 3), -2, d),
            (Fraction(8, 3), -2, d),
            (Fraction(5, 6), 2, d),
        ]
        assert [parts(z) for z in products[:3]] == [
            (Fraction(-5, 3) + 7 * d, Fraction(-10 + Fraction(7, 6)), d),
            (Fraction(2, 3), 4, d),
            (Fraction(1, 9) - 4 * d, 0, 0),
        ]
        assert products[3] == horner_eval_rational(p, x.a) + x.b * r * (
            p.c1 + 2 * p.c2 * x.a
        ) + p.c2 * x.b * x.b * d
        assert products[4] == QI(horner_eval_rational(p, 7)) == QI(Fraction(*p.grid_value(7, 1)))

    @given(rationals, rationals, rationals, rationals,
           st.integers(min_value=0, max_value=10**6))
    def test_results_are_canonical(self, a1, b1, a2, b2, d):
        x, y = a1 + b1 * QI.sqrt(d), a2 + b2 * QI.sqrt(d)
        conj = x.a - x.b * QI.sqrt(x.d)
        results = [
            x + y, x - y, -x, x * y, x * conj, x + a2, a2 - x, x * a2,
            quad_eval(QuadPoly(a2, b2, a1), x), QI.sqrt(abs(a1)),
        ]
        assert results[4].is_rational
        assert results[-1] * results[-1] == QI(abs(a1))
        for z in results:
            assert type(z.a) is Fraction and type(z.b) is Fraction and type(z.d) is int
            assert_canonical(z)
            assert z.d == 0 or squarefree_decompose(z.d)[0] == 1
            assert z.d != 0 or hash(z) == hash(z.a)


class TestFormat:
    def test_str(self):
        assert str(QI(Fraction(-3, 2))) == "-3/2"
        assert str(QI.sqrt(2)) == "0+1*sqrt(2)"
        assert str(-1 - Fraction(1, 2) * QI.sqrt(5)) == "-1-1/2*sqrt(5)"
        assert str(QI.sqrt(Fraction(9, 8))) == "0+3/4*sqrt(2)"

    def test_repr_builds_the_value(self):
        names = {"QuadraticIrrational": QI, "Fraction": Fraction}
        for x in (QI(Fraction(-3, 2)), QI.sqrt(2), -1 - Fraction(1, 2) * QI.sqrt(5)):
            assert eval(repr(x), names) == x


coefficients = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)
coefficient_triples = st.tuples(coefficients, coefficients, coefficients)


class TestQuadPoly:
    def test_eval_on_irrational(self):
        p = QuadPoly(-2, 0, 1)  # x^2 - 2
        assert quad_eval(p, QI.sqrt(2)) == QI(0)
        assert parts(quad_eval(p, 1 + QI.sqrt(2))) == (1, 2, 2)

    def test_reflect_derivative(self):
        p = QuadPoly(1, -2, 3)
        assert p.reflect() == QuadPoly(1, 2, 3)
        assert p.derivative() == QuadPoly(-2, 6, 0)
        assert p.grid_value(1, 2) == (3, 4) and horner_eval_rational(p, Fraction(1, 2)) == Fraction(3, 4)

    @settings(max_examples=200, deadline=None)
    @given(coefficient_triples, coefficient_triples)
    # 1/2 + 1/2 = 1 needs the gcd; so does (1 + x^2)/2, whose derivative is x
    @example((Fraction(1, 2), 0, 0), (Fraction(1, 2), 0, 0))
    @example((Fraction(1, 2), 0, Fraction(1, 2)), (0, 0, 0))
    # denominators 2 and 2: their lcm is 2, their product 4
    @example((Fraction(1, 2), Fraction(1, 2), 0), (0, 0, 0))
    def test_stored_form_is_canonical(self, cs, ds):
        """Every constructor stores the unique form: the coefficients read
        back, gcd(A0, A1, A2, L) = 1 and L > 0, so equal polynomials compare
        and hash equal whichever way they were built."""
        p, q = QuadPoly(*cs), QuadPoly(*ds)
        assert (p.c0, p.c1, p.c2) == tuple(Fraction(c) for c in cs)
        built = {
            "+": (p + q, [c + d for c, d in zip(cs, ds)]),
            "-": (p - q, [c - d for c, d in zip(cs, ds)]),
            "neg": (-p, [-c for c in cs]),
            "reflect": (p.reflect(), [cs[0], -cs[1], cs[2]]),
            "derivative": (p.derivative(), [cs[1], 2 * cs[2], 0]),
        }
        for r, coefficients in [(p, cs), (q, ds), *built.values()]:
            stored = (r._A0, r._A1, r._A2, r._L)
            assert all(type(n) is int for n in stored)
            assert r._L > 0 and math.gcd(*stored) == 1
            assert r == QuadPoly(*coefficients) and hash(r) == hash(QuadPoly(*coefficients))


polys = st.builds(QuadPoly, coefficients, coefficients, coefficients)


@st.composite
def grid_points(draw):
    """Points of `rational_grid` over denominators 1024 and 4096, as the
    svg and csv samplers draw them."""
    lo = draw(st.floats(min_value=-1e6, max_value=1e6))
    hi = lo + draw(st.floats(min_value=0, max_value=1e3))
    steps = draw(st.integers(min_value=1, max_value=400))
    den = draw(st.sampled_from([1024, 4096]))
    return Fraction(draw(st.sampled_from(rational_grid(lo, hi, steps, den))), den)


@st.composite
def field_points(draw):
    """x = a + b*QI.sqrt(n) with radicands up to 10**11, squarefree or not,
    square (so x is rational) or 0."""
    n = draw(st.one_of(
        st.integers(min_value=0, max_value=10**11),
        st.integers(min_value=0, max_value=10**5).map(lambda r: r * r),
    ))
    return draw(coefficients) + draw(coefficients) * QI.sqrt(n)


class TestEvalOracle:
    """The closed-form evaluations against the Horner and ring-operation forms."""

    @settings(max_examples=200, deadline=None)
    @given(polys, st.one_of(grid_points(), st.integers(-10**9, 10**9), st.fractions()),
           st.integers(min_value=1, max_value=5))
    @example(QuadPoly(1, -2, 3), Fraction(3, 1024), 1)
    @example(QuadPoly(Fraction(1, 6), Fraction(-5, 4), Fraction(7, 9)), Fraction(-1, 3), 2)
    def test_grid_value_matches_horner(self, p, x, scale):
        """grid_value(k, den) is the value at k/den, for den in lowest terms
        or not, as an unreduced pair of ints over a positive denominator."""
        x = Fraction(x)
        n, m = p.grid_value(scale * x.numerator, scale * x.denominator)
        assert type(n) is int and type(m) is int and m > 0
        assert Fraction(n, m) == horner_eval_rational(p, x)

    @settings(max_examples=200, deadline=None)
    @given(polys, st.one_of(field_points(), coefficients))
    @example(QuadPoly(1, -2, 3), Fraction(1, 3) + 2 * QI.sqrt(5))
    @example(QuadPoly(0, 0, 1), QI.sqrt(7))
    @example(QuadPoly(-2, 0, 1), QI.sqrt(2))
    def test_quad_eval_matches_ring_ops(self, p, x):
        assert_twins(quad_eval(p, x), ring_quad_eval(p, x))


class TestFloorTimes:
    """floor(x*den) in integers against the largest k with k/den <= x, found
    by exact comparison."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(field_points(), coefficients), st.one_of(
        st.sampled_from([1024, 4096]), st.integers(min_value=1, max_value=10**6)))
    # a negative coefficient of the root: 1024*(1 - sqrt(2)) = -424.15...,
    # and 1024*(-sqrt(2)) = -1448.15...
    @example(1 - QI.sqrt(2), 1024)
    @example(-QI.sqrt(2), 1024)
    @example(QI.sqrt(2), 1024)
    # rationals on and off the grid, negative ones among them
    @example(Fraction(-3, 4), 1024)
    @example(Fraction(-1, 3), 4096)
    def test_floor_times_matches_exact_search(self, x, den):
        x = x if isinstance(x, QI) else QI(x)
        k = x.floor_times(den)
        assert type(k) is int
        assert QI(Fraction(k, den)) <= x < QI(Fraction(k + 1, den))


class TestFloat:
    """float of a quadratic irrational against the exact bracket at 2^-2000."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(field_points(), coefficients))
    # the parts cancel: (3 - 2*sqrt(2))^30 is about 1.08e-23, and the
    # breakpoint of the leaf (2, 69523264248641314, 1) about -1.4e-17
    @example(46292552162781456490001 - 32733777552734744709300 * QI.sqrt(2))
    @example(-34761632124320657 + 24580185800219268 * QI.sqrt(2))
    # sqrt(2)*2^54 lies just above a rounding boundary of the 55th bit
    @example(QI.sqrt(2))
    @example(-QI.sqrt(2))
    def test_float_is_correctly_rounded(self, x):
        assert_correctly_rounded(x if isinstance(x, QI) else QI(x))


def assert_twins(z: QI, oz: OracleQI) -> None:
    """z is the library's value of the oracle's value oz: the same a, b and d,
    and text; a correctly rounded float; equal to a rational exactly when oz is; for a rational,
    the hash of its Fraction; for an irrational, the hash of the same value
    built again from its parts; and stored canonically."""
    assert type(z) is QI and type(z.a) is Fraction and type(z.b) is Fraction
    assert (z.a, z.b, z.d) == (oz.a, oz.b, oz.d)
    assert (str(z), repr(z)) == (str(oz), repr(oz))
    assert_correctly_rounded(z)
    assert (z == oz.a) is (oz == oz.a) and (z == z.a.numerator) is (oz == oz.a.numerator)
    assert_canonical(z)
    if oz.is_rational:
        assert hash(z) == hash(oz) == hash(oz.a)
    else:
        assert hash(z) == hash(QI(z.a) + z.b * QI.sqrt(z.d))


radicands = st.one_of(
    st.integers(min_value=0, max_value=10**11),
    st.integers(min_value=0, max_value=10**5).map(lambda r: r * r),
)
ints = st.integers(min_value=-10**6, max_value=10**6)
fracs = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
operands = st.one_of(ints, fracs)


def _twin(a, b, n):
    """a + b*sqrt(n) built by the same expression in the library's class
    and in the oracle's."""
    return a + b * QI.sqrt(n), a + b * OracleQI.sqrt(n)


@st.composite
def twins(draw, n):
    """`_twin` with a and b ints or Fractions."""
    return _twin(draw(operands), draw(operands), n)


@st.composite
def operand_twins(draw):
    """(x, ox, y, oy, kind): a value x with its oracle twin ox, and a second
    operand y with its twin oy.  y is an int, a Fraction, a value of x's
    field (the same radicand up to 10**11, a square multiple of it, or a
    square, so rational) or a value of another field."""
    n = draw(radicands)
    x, ox = draw(twins(n))
    kind = draw(st.sampled_from(["int", "fraction", "same", "square-multiple", "square", "other"]))
    if kind == "int" or kind == "fraction":
        y = draw(ints if kind == "int" else fracs)
        return x, ox, y, y, kind
    m = {
        "same": n,
        "square-multiple": n * draw(st.integers(min_value=2, max_value=300)) ** 2,
        "square": draw(st.integers(min_value=0, max_value=300)) ** 2,
        "other": draw(radicands),
    }[kind]
    y, oy = draw(twins(m))
    return x, ox, y, oy, kind


class TestQIOracle:
    """The integer class against the Fraction-pair class it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(operand_twins())
    # (sqrt(2)/2)*2 = sqrt(2) and 1/2 + 1/2 = 1 need the gcd to be canonical
    @example((*_twin(0, Fraction(1, 2), 2), 2, 2, "int"))
    @example((*_twin(Fraction(1, 2), 0, 0), Fraction(1, 2), Fraction(1, 2), "fraction"))
    @example((*_twin(Fraction(1, 6), Fraction(5, 6), 7), *_twin(Fraction(1, 3), Fraction(1, 6), 7),
              "same"))
    def test_ring_ops_match_oracle(self, case):
        x, ox, y, oy, kind = case
        assert_twins(x, ox)
        assert_twins(-x, -ox)
        for op in (operator.add, operator.sub, operator.mul):
            if kind == "other" and x.d and y.d and x.d != y.d:
                with pytest.raises(ValueError, match="quadratic fields"):
                    op(x, y)
                with pytest.raises(ValueError, match="quadratic fields"):
                    op(ox, oy)
                continue
            assert_twins(op(x, y), op(ox, oy))
            assert_twins(op(y, x), op(oy, ox))

    @settings(max_examples=200, deadline=None)
    @given(operand_twins())
    @example((*_twin(Fraction(-31783724, 10**8), 1, 3), *_twin(0, 1, 2), "other"))
    @example((*_twin(Fraction(665857, 470832), 0, 0), *_twin(0, 1, 2), "other"))
    def test_order_matches_oracle(self, case):
        x, ox, y, oy, _ = case
        assert x.sign() == ox.sign()
        assert x.compare(y) == ox.compare(oy)
        ops = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
        assert [op(x, y) for op in ops] == [op(ox, oy) for op in ops]
        assert [op(y, x) for op in ops] == [op(oy, ox) for op in ops]

    @settings(max_examples=100, deadline=None)
    @given(radicands, st.integers(min_value=1, max_value=1000))
    @example(72, 1)
    @example(9, 8)
    @example(0, 5)
    def test_sqrt_matches_oracle(self, n, m):
        assert_twins(QI.sqrt(Fraction(n, m)), OracleQI.sqrt(Fraction(n, m)))
        assert_twins(QI.sqrt(n), OracleQI.sqrt(n))

    @settings(max_examples=200, deadline=None)
    @given(polys, operand_twins())
    @example(QuadPoly(1, -2, 3), (*_twin(Fraction(1, 3), 2, 5), 0, 0, "int"))
    @example(QuadPoly(-2, 0, 1), (*_twin(0, 1, 2), 0, 0, "int"))
    def test_quad_eval_matches_oracle(self, p, case):
        x, ox, y, oy, _ = case
        assert_twins(quad_eval(p, x), oracle_quad_eval(p, ox))
        assert_twins(quad_eval(p, y), oracle_quad_eval(p, oy))


class TestNoFractions:
    """Ring operations, sign, compare and quad_eval on irrational operands
    run in integers: they build no `Fraction`."""

    def test_irrational_operands_build_no_fraction(self):
        r = QI.sqrt(5)
        x, y = Fraction(1, 3) + 2 * r, -5 + Fraction(7, 2) * r
        z, h = QI.sqrt(7) - 1, Fraction(3, 4)
        p = QuadPoly(1, Fraction(-2, 3), Fraction(5, 2))
        with fractions_built() as built:
            values = [x + y, x - y, -x, x * y, x + 3, 3 + x, x - 3, 3 - x, 3 * x, x * 3,
                      x + h, h + x, x - h, h - x, h * x, x * h, quad_eval(p, x)]
            order = [x.sign(), x.compare(y), x.compare(z), x.compare(h), x.compare(3),
                     x < y, x <= z, x > h, x >= 3, h < x, 3 > x, x == y, x == h]
        assert built == []
        with fractions_built() as built:
            Fraction(1, 3)
            Fraction(2, 3) + Fraction(1, 5)
        assert built  # the spy sees Fraction construction and arithmetic
        assert [float(v) for v in values[:4]] == pytest.approx(
            [float(x) + float(y), float(x) - float(y), -float(x), float(x) * float(y)])
        assert order == [1, 1, 1, 1, 1, False, False, True, True, True, False, False, False]

    def test_grid_sampling_builds_no_fraction(self):
        """`sample` and the function plot locate and evaluate each grid point in
        integers: thresholds, not breakpoint comparisons, and int / int floats."""
        fn = PiecewiseQuadratic(
            [1 - QI.sqrt(2), QI(Fraction(1, 3)), QI.sqrt(5)],
            [QuadPoly(0), QuadPoly(1, Fraction(-1, 3)), QuadPoly(Fraction(2, 7), 0, 5),
             QuadPoly(-4, 1, Fraction(1, 2))],
        )
        with fractions_built() as built:
            values = fn.sample(range(-4096, 4096, 7), 1024)
            svg = render_function_svg(fn)
        assert built == []
        assert len(values) == 1171 and svg.count('class="breakpoint"') == 3
