"""Exact arithmetic substrate: rationals, quadratic irrationals, quadratic polynomials.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced).
Quadratic irrationals are values a + b*sqrt(d) with rational a, b and
squarefree d >= 0, canonicalized so that b == 0 iff d == 0.  All comparisons
are exact; no floating point is used anywhere in this module.

Every irrational is born in `QuadraticIrrational.sqrt`, the only place that
factors a radicand; the constructor `QuadraticIrrational(a)` only embeds a
rational.  The cost of a ring operation does not depend on the radicand:
the ring operations combine canonical operands of one field Q(sqrt(d)), so
their results are built by the trusted constructor
`QuadraticIrrational._canonical`, which never factors.  `squarefree_decompose`
trial-divides only up to the cube root of the cofactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as s**2 * d with d squarefree; returns (s, d).

    Trial division runs only while p**3 <= n, where n is the cofactor still
    undivided, so a radicand near 5e10 costs about 1,800 divisions rather
    than 110,000.  Completeness: when the loop stops, every prime below p has
    been divided out, so every prime factor of the cofactor is at least p,
    and p**3 > n.  The cofactor therefore has at most two prime factors
    counted with multiplicity: it is 1, q, q*r or q**2 with q != r primes at
    least p.  Of these only 1 and q**2 are squares, and one isqrt test tells
    them apart; q and q*r are squarefree and coprime to the primes already
    in d, so they join d whole.
    """
    if n <= 0:
        raise ValueError("squarefree_decompose expects a positive integer")
    s, d = 1, 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        s *= r
    else:
        d *= n
    return s, d


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or a decimal; malformed text raises ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


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

    def _enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Dyadic enclosure [lo, hi] of the value, width shrinking with bits."""
        scale = 1 << bits
        r = math.isqrt(self.d * scale * scale)
        lo_s, hi_s = Fraction(r, scale), Fraction(r + 1, scale)
        if self.b > 0:
            lo, hi = self.a + self.b * lo_s, self.a + self.b * hi_s
        else:
            lo, hi = self.a + self.b * hi_s, self.a + self.b * lo_s
        return lo, hi

    def sign(self) -> int:
        """Exact sign of the value, in {-1, 0, 1}."""
        if self.d == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        # a and b*sqrt(d) nonzero: compare a**2 vs b**2*d with case analysis
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        if self.a > 0:  # b < 0
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

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
        """Exact three-way comparison, valid across different fields."""
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError(f"cannot compare with {other!r}")
        if self.a == other.a and self.b == other.b and self.d == other.d:
            return 0
        if self.d == 0 or other.d == 0 or self.d == other.d:
            return (self - other).sign()
        # Cross-field: canonical forms differ, so the values differ; refine
        # dyadic enclosures until they are disjoint.
        bits = 16
        while True:
            lo1, hi1 = self._enclosure(bits)
            lo2, hi2 = other._enclosure(bits)
            if hi1 < lo2:
                return -1
            if hi2 < lo1:
                return 1
            bits *= 2

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


@dataclass(frozen=True)
class QuadPoly:
    """Polynomial c0 + c1*x + c2*x**2 with rational coefficients."""

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __init__(self, c0: RationalLike, c1: RationalLike = 0, c2: RationalLike = 0):
        object.__setattr__(self, "c0", Fraction(c0))
        object.__setattr__(self, "c1", Fraction(c1))
        object.__setattr__(self, "c2", Fraction(c2))

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def __add__(self, other: "QuadPoly") -> "QuadPoly":
        return QuadPoly(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "QuadPoly") -> "QuadPoly":
        return QuadPoly(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "QuadPoly":
        return QuadPoly(-self.c0, -self.c1, -self.c2)

    def reflect(self) -> "QuadPoly":
        """The polynomial x -> p(-x)."""
        return QuadPoly(self.c0, -self.c1, self.c2)

    def derivative(self) -> "QuadPoly":
        return QuadPoly(self.c1, 2 * self.c2, 0)

    def eval_rational(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        return self.c0 + x * (self.c1 + self.c2 * x)

    def __str__(self):
        return (
            f"{format_rational(self.c0)} + {format_rational(self.c1)}*x"
            f" + {format_rational(self.c2)}*x^2"
        )


def quad_eval(p: QuadPoly, x) -> QuadraticIrrational:
    """Exact value p(x); the result stays in the field Q(sqrt(d)) of x."""
    x = QuadraticIrrational._coerce(x)
    if x is NotImplemented:
        raise TypeError("quad_eval expects a QuadraticIrrational or rational")
    return x * x * p.c2 + x * p.c1 + QuadraticIrrational(p.c0)
