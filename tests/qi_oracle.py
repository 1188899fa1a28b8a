"""The Fraction-pair quadratic irrational: the oracle for `QuadraticIrrational`.

This is the class as it was before the integer form: a value a + b*sqrt(d)
held as two `Fraction`s and a squarefree radicand, with its ring operations,
order, hash, float and text spelled out in `Fraction` arithmetic, and
`quad_eval` as the closed form in `Fraction`s.  It is copied here rather than
imported, so a change to the library's integer formulas cannot silently
change the oracle.  Only `squarefree_decompose` comes from the library; the
tests check it against its own oracle.  `from_parts` builds the oracle's
value of a library value from its public a, b and d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from tiltwall.exactnum import squarefree_decompose

RationalLike = Union[int, Fraction]


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _sign(A: int, B: int, D: int) -> int:
    """Sign of A + B*sqrt(D) for integers A, B and D >= 0, in {-1, 0, 1}.

    If A and B*sqrt(D) are both >= 0 or both <= 0, the sum has their common
    sign (B*sqrt(0) counts as 0).  Otherwise they have strictly opposite
    signs, and the sum has the sign of A exactly when |A| > |B|*sqrt(D),
    that is when A^2 > B^2*D, is 0 when A^2 = B^2*D, and has the other sign
    when A^2 < B^2*D: the sign is sign(A)*sign(A^2 - B^2*D).
    """
    sa = (A > 0) - (A < 0)
    sb = (B > 0) - (B < 0) if D else 0
    if sa * sb >= 0:
        return sa or sb
    x = A * A - B * B * D
    return sa * ((x > 0) - (x < 0))


class QuadraticIrrational:
    """Exact real value a + b*sqrt(d), with d a squarefree nonnegative integer.

    Canonical form: d squarefree and not 1, and b == 0 iff d == 0.  Equality
    is then structural.  Instances are immutable.  `QuadraticIrrational(a)`
    embeds the rational a; an irrational is built from `sqrt` and the ring
    operations, for example `1 + 2 * QuadraticIrrational.sqrt(5)`.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(0))
        object.__setattr__(self, "d", 0)

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, d: int) -> "QuadraticIrrational":
        """Trusted constructor: build a + b*sqrt(d) without factoring d.

        The caller guarantees that a and b are Fractions and that d is 0 or a
        squarefree integer other than 1.  Only the collapse b == 0 => d = 0 is
        applied.  Callers and why they qualify:

        - `__add__`, `__neg__` and `__mul__`: both operands are canonical and
          `_common_field` returns the radicand of one of them, so d is 0 or
          squarefree and never 1.  A sum or product whose irrational part
          cancels (say a conjugate product) is rational and collapses here.
        - `sqrt`: d is the squarefree part returned by its one decomposition
          of num*den, with d == 1 handled there as a rational root.  It is
          the only caller that factors, so every irrational starts there.
        - `quad_eval`: d is the canonical radicand of its argument x, and
          both parts of its closed form are Fractions.  A value whose
          irrational part b*(c1 + 2*c2*a) is 0 collapses here.
        """
        if b == 0:
            d = 0
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticIrrational is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, q: RationalLike) -> "QuadraticIrrational":
        """Exact square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("square root of a negative rational")
        if q == 0:
            return cls(0)
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = squarefree_decompose(q.numerator * q.denominator)
        if d == 1:
            return cls._canonical(Fraction(s, q.denominator), Fraction(0), 0)
        return cls._canonical(Fraction(0), Fraction(s, q.denominator), d)

    # -- queries -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def sign(self) -> int:
        """Exact sign of the value, in {-1, 0, 1}.

        The value times a.den*b.den > 0 is A + B*sqrt(d) with the integers
        A = a.num*b.den and B = b.num*a.den, so `_sign` settles it.
        """
        a, b = self.a, self.b
        return _sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

    # -- arithmetic (same-field or rational operands) ----------------------

    @staticmethod
    def _coerce(x) -> "QuadraticIrrational":
        if isinstance(x, QuadraticIrrational):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadraticIrrational(x)
        return NotImplemented

    def _common_field(self, other: "QuadraticIrrational") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ValueError(
            f"values live in different quadratic fields (sqrt({self.d}) vs sqrt({other.d}))"
        )

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_field(other)
        return QuadraticIrrational._canonical(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational._canonical(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_field(other)
        return QuadraticIrrational._canonical(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    # -- order -------------------------------------------------------------

    def compare(self, other) -> int:
        """Exact three-way comparison, valid across different fields.

        The difference is r + s*sqrt(d1) + t*sqrt(d2) with r = a1 - a2,
        s = b1 and t = -b2; times the common denominator L > 0 of a1, a2, b1
        and b2 it is R + S*sqrt(d1) + T*sqrt(d2) in integers.  Canonical
        forms give S = 0 when d1 = 0 and T = 0 when d2 = 0.

        Same field, or one operand rational: the difference is
        R + (S + T)*sqrt(d) with d the one radicand, and `_sign` settles it.

        Across fields (d1 != d2, both squarefree and not 0 or 1, so S and T
        are nonzero): put u = S*sqrt(d1) + T*sqrt(d2).  As z -> z*|z| is odd
        and strictly increasing, x + y and x*|x| + y*|y| have one sign, so
        sign(u) is the sign of the integer S*|S|*d1 + T*|T|*d2.  That integer
        is never 0: S^2*d1 = T^2*d2 would make d1*d2 a square, which two
        distinct squarefree integers never give.  If R is 0 or has the sign
        of u, the difference has the sign of u.  Otherwise R and u have
        strictly opposite signs, so R + u has the sign of R when R^2 > u^2
        and the other sign when R^2 < u^2, and
        R^2 - u^2 = (R^2 - S^2*d1 - T^2*d2) - 2*S*T*sqrt(d1*d2) is one more
        `_sign`.  No enclosure or loop is needed.
        """
        x = self._coerce(other)
        if x is NotImplemented:
            raise TypeError(f"cannot compare with {other!r}")
        a1, b1, d1, a2, b2, d2 = self.a, self.b, self.d, x.a, x.b, x.d
        L = math.lcm(a1.denominator, a2.denominator, b1.denominator, b2.denominator)
        R = a1.numerator * (L // a1.denominator) - a2.numerator * (L // a2.denominator)
        S = b1.numerator * (L // b1.denominator)
        T = -b2.numerator * (L // b2.denominator)
        if d1 == 0 or d2 == 0 or d1 == d2:
            return _sign(R, S + T, d1 or d2)
        u = _sign(S * abs(S) * d1 + T * abs(T) * d2, 0, 0)
        if R * u >= 0:
            return u
        return -u * _sign(R * R - S * S * d1 - T * T * d2, -2 * S * T, d1 * d2)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.d == 0 and self.a == other
        if isinstance(other, QuadraticIrrational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        if self.d == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    # -- text --------------------------------------------------------------

    def __str__(self):
        if self.d == 0:
            return format_rational(self.a)
        sign = "+" if self.b >= 0 else "-"
        return f"{format_rational(self.a)}{sign}{format_rational(abs(self.b))}*sqrt({self.d})"

    def __repr__(self):
        rational = f"QuadraticIrrational({self.a!r})"
        if self.d == 0:
            return rational
        return f"{rational} + {self.b!r} * QuadraticIrrational.sqrt({self.d})"


def quad_eval(p, x) -> QuadraticIrrational:
    """Exact value p(x); the result stays in the field Q(sqrt(d)) of x.

    For x = a + b*sqrt(d), expanding c0 + c1*x + c2*x**2 with
    sqrt(d)**2 = d gives the closed form
    p(x) = (p(a) + c2*b**2*d) + b*(c1 + 2*c2*a)*sqrt(d).
    Both parts are rational: p(a) is c0 + a*(c1 + c2*a), and the rest is
    `Fraction` arithmetic too, so the value is exact.  d is the canonical
    radicand of x, so the trusted `QuadraticIrrational._canonical` builds
    the result and collapses it to a rational when its b is 0.
    """
    x = QuadraticIrrational._coerce(x)
    if x is NotImplemented:
        raise TypeError("quad_eval expects a QuadraticIrrational or rational")
    a, b, d = x.a, x.b, x.d
    return QuadraticIrrational._canonical(
        p.c0 + a * (p.c1 + p.c2 * a) + p.c2 * b * b * d, b * (p.c1 + 2 * p.c2 * a), d
    )


def from_parts(a: Fraction, b: Fraction, d: int) -> QuadraticIrrational:
    """The oracle's value a + b*sqrt(d), for d squarefree or 0."""
    return QuadraticIrrational(a) + b * QuadraticIrrational.sqrt(d)
