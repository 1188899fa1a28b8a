import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from squarefree_oracle import is_prime, squarefree_decompose_sqrt
from tiltwall import exactnum
from tiltwall.exactnum import (
    QuadPoly,
    QuadraticIrrational as QI,
    parse_quadratic_irrational,
    quad_eval,
    quad_roots,
    squarefree_decompose,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


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
    def test_square_radicand_collapses(self):
        assert QI(0, 2, 4) == QI(4)
        assert QI(1, 3, 1) == QI(4)

    def test_square_factor_extracted(self):
        assert QI(0, 1, 8) == QI(0, 2, 2)
        assert QI(0, 1, 45) == QI(0, 3, 5)

    def test_zero_coefficient_clears_radicand(self):
        x = QI(3, 0, 7)
        assert x.d == 0 and x.is_rational

    def test_sqrt(self):
        assert QI.sqrt(4) == QI(2)
        assert QI.sqrt(8) == QI(0, 2, 2)
        assert QI.sqrt(Fraction(1, 2)) == QI(0, Fraction(1, 2), 2)
        assert QI.sqrt(0) == QI(0)
        with pytest.raises(ValueError):
            QI.sqrt(-1)

    def test_immutable(self):
        x = QI(1, 1, 2)
        with pytest.raises(AttributeError):
            x.a = Fraction(2)


class TestSignAndOrder:
    def test_both_negative_case(self):
        # -2 vs -sqrt(5): squaring flips, -2 is larger
        assert QI(-2) > QI(0, -1, 5)
        assert (QI(-2) - QI(0, -1, 5)).sign() == 1

    def test_sign_cases(self):
        assert QI(0).sign() == 0
        assert QI(1, -1, 2).sign() < 0  # 1 - 1.414...
        assert QI(2, -1, 2).sign() > 0
        assert QI(-1, 1, 2).sign() > 0
        assert (QI(2) - QI.sqrt(4)).sign() == 0

    def test_cross_field_compare(self):
        assert QI.sqrt(2) < QI.sqrt(3)
        assert QI(1) + QI.sqrt(2) < QI.sqrt(6)
        assert QI.sqrt(2) + 1 > QI.sqrt(5)

    def test_cross_field_compare_refines(self, monkeypatch):
        # 1.41421356757 against sqrt(2) = 1.41421356237: the 16-bit
        # enclosures overlap, the 32-bit ones are disjoint
        x, y = QI(Fraction(-31783724, 10**8), 1, 3), QI(0, 1, 2)
        bits_used = []
        enclosure = QI._enclosure

        def spy(self, bits):
            bits_used.append(bits)
            return enclosure(self, bits)

        monkeypatch.setattr(QI, "_enclosure", spy)
        assert x.compare(y) == 1 and y.compare(x) == -1
        assert bits_used == [16, 16, 32, 32] * 2

    @given(rationals, st.fractions(min_value=-10, max_value=10, max_denominator=16),
           st.integers(min_value=0, max_value=50))
    def test_sign_matches_float(self, a, b, d):
        x = QI(a, b, d)
        approx = float(x)
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1)

    @given(rationals, rationals)
    def test_order_antisymmetry(self, a, b):
        x, y = QI(a, 1, 2), QI(b, 1, 3)
        assert x.compare(y) == -y.compare(x)

    def test_different_field_arithmetic_rejected(self):
        with pytest.raises(ValueError, match="quadratic fields"):
            QI.sqrt(2) + QI.sqrt(3)


class TestArithmetic:
    @given(rationals, rationals, rationals, rationals)
    def test_ring_ops_match_float(self, a1, b1, a2, b2):
        x, y = QI(a1, b1, 5), QI(a2, b2, 5)
        assert math.isclose(float(x + y), float(x) + float(y), abs_tol=1e-6)
        assert math.isclose(float(x * y), float(x) * float(y), abs_tol=1e-4)
        assert math.isclose(float(x - y), float(x) - float(y), abs_tol=1e-6)

    def test_rational_mixing(self):
        assert QI.sqrt(2) * 2 == QI(0, 2, 2)
        assert 1 + QI.sqrt(2) == QI(1, 1, 2)
        assert 3 - QI.sqrt(2) == QI(3, -1, 2)

    def test_conjugate_product_is_rational(self):
        x = QI(3, 2, 7)
        assert x * QI(3, -2, 7) == QI(9 - 4 * 7)


class TestCanonicalOps:
    BIG_PRIME = 1_000_000_000_039  # above 10**12

    def test_ring_ops_never_decompose(self, monkeypatch):
        d = self.BIG_PRIME
        x, y = QI(Fraction(1, 3), 2, d), QI(-5, Fraction(7, 2), d)
        conj = QI(x.a, -x.b, d)
        p = QuadPoly(1, -2, 3)

        def refuse(n):
            raise RuntimeError(f"ring op factored radicand {n}")

        monkeypatch.setattr(exactnum, "squarefree_decompose", refuse)
        sums = [x + y, x - y, -x, 3 - x, x + Fraction(1, 2)]
        products = [x * y, 2 * x, x * conj, quad_eval(p, x), quad_eval(p, 7)]
        monkeypatch.undo()
        assert sums == [
            QI(Fraction(-14, 3), Fraction(11, 2), d),
            QI(Fraction(16, 3), Fraction(-3, 2), d),
            QI(Fraction(-1, 3), -2, d),
            QI(Fraction(8, 3), -2, d),
            QI(Fraction(5, 6), 2, d),
        ]
        assert products[:3] == [
            QI(Fraction(-5, 3) + 7 * d, Fraction(-10 + Fraction(7, 6)), d),
            QI(Fraction(2, 3), 4, d),
            QI(Fraction(1, 9) - 4 * d),
        ]
        assert products[3] == p.eval_rational(x.a) + QI(0, x.b, d) * (
            p.c1 + 2 * p.c2 * x.a
        ) + p.c2 * x.b * x.b * d
        assert products[4] == QI(p.eval_rational(7))

    @given(rationals, rationals, rationals, rationals,
           st.integers(min_value=0, max_value=10**6))
    def test_results_equal_public_rebuild(self, a1, b1, a2, b2, d):
        x, y = QI(a1, b1, d), QI(a2, b2, d)
        conj = QI(x.a, -x.b, x.d)
        results = [
            x + y, x - y, -x, x * y, x * conj, x + a2, a2 - x, x * a2,
            quad_eval(QuadPoly(a2, b2, a1), x), QI.sqrt(abs(a1)),
        ]
        assert results[4].is_rational
        assert results[-1] * results[-1] == QI(abs(a1))
        for r in results:
            rebuilt = QI(r.a, r.b, r.d)
            assert (r.a, r.b, r.d) == (rebuilt.a, rebuilt.b, rebuilt.d)
            assert type(r.a) is Fraction and type(r.b) is Fraction and type(r.d) is int
            assert hash(r) == hash(rebuilt)


class TestParseFormat:
    @given(rationals, st.fractions(min_value=-10, max_value=10, max_denominator=16),
           st.integers(min_value=0, max_value=30))
    def test_round_trip(self, a, b, d):
        x = QI(a, b, d)
        assert parse_quadratic_irrational(str(x)) == x

    def test_examples(self):
        assert parse_quadratic_irrational("3/2") == QI(Fraction(3, 2))
        assert parse_quadratic_irrational("0+1*sqrt(2)") == QI.sqrt(2)
        assert parse_quadratic_irrational("-1-1/2*sqrt(5)") == QI(-1, Fraction(-1, 2), 5)
        with pytest.raises(ValueError):
            parse_quadratic_irrational("sqrt(2)+")


class TestQuadPoly:
    def test_roots_irrational(self):
        roots = quad_roots(QuadPoly(-2, 0, 1))
        assert [r.value for r in roots] == [QI(0, -1, 2), QI(0, 1, 2)]
        assert all(r.multiplicity == 1 for r in roots)

    def test_double_root(self):
        roots = quad_roots(QuadPoly(1, -2, 1))
        assert roots == [type(roots[0])(QI(1), 2)]

    def test_linear_and_constant(self):
        assert quad_roots(QuadPoly(-3, 2, 0))[0].value == QI(Fraction(3, 2))
        assert quad_roots(QuadPoly(5, 0, 0)) == []
        assert quad_roots(QuadPoly(1, 0, 1)) == []

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError, match="indeterminate"):
            quad_roots(QuadPoly(0, 0, 0))

    @given(rationals, rationals, rationals)
    def test_roots_evaluate_to_zero(self, c0, c1, c2):
        p = QuadPoly(c0, c1, c2)
        if p.is_zero:
            return
        for r in quad_roots(p):
            assert quad_eval(p, r.value).sign() == 0

    def test_eval_on_irrational(self):
        p = QuadPoly(-2, 0, 1)  # x^2 - 2
        assert quad_eval(p, QI.sqrt(2)) == QI(0)
        assert quad_eval(p, QI(1, 1, 2)) == QI(1, 2, 2)

    def test_reflect_derivative(self):
        p = QuadPoly(1, -2, 3)
        assert p.reflect() == QuadPoly(1, 2, 3)
        assert p.derivative() == QuadPoly(-2, 6, 0)
        assert p.eval_rational(Fraction(1, 2)) == Fraction(3, 4)
