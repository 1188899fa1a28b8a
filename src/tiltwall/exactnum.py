"""Exact arithmetic substrate: rationals, quadratic irrationals, quadratic polynomials.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced).
`parse_rational` refuses a decimal exponent beyond the interpreter's
int-digit limit before `Fraction` expands it.
A quadratic irrational is held as four integers: the value (A + B*sqrt(d))/C
with C > 0, gcd(A, B, C) = 1, and d squarefree and not 1 or d = 0, where
B == 0 iff d == 0.  That form is unique, so equality is structural.  All
comparisons are exact; no floating point is used anywhere in this module
but the `int / int` that `float` returns.

Every irrational is born in `QuadraticIrrational.sqrt`, the only place that
factors a radicand; the constructor `QuadraticIrrational(a)` only embeds a
rational.  The cost of a ring operation does not depend on the radicand:
the ring operations combine operands of one field Q(sqrt(d)) in integer
arithmetic, an `int` or `Fraction` operand taken as (A, 0, 1) or
(numerator, 0, denominator) without building a value for it, and the
trusted constructor `_canonical` reduces the result with one `math.gcd` and
never factors.  No ring operation, sign, comparison, `floor_times`, `float`
or `quad_eval` builds a `Fraction`; only the read-only `a` and `b` do.
`floor_times(den)` is floor(x*den), the integer threshold that places grid
points k/den against x (proof in its docstring), and `float` is the
correctly rounded float of the midpoint of one such bracket.
`squarefree_decompose` trial-divides only up to the cube root of the
cofactor.

A quadratic polynomial `QuadPoly` is held the same way, as four integers:
(A0 + A1*x + A2*x**2)/L with L > 0 and gcd(A0, A1, A2, L) = 1, the unique
form (proof in `_poly`), so equality is structural and c0, c1 and c2 are
read-only `Fraction` properties.  Its ring operations build through the
trusted constructor `_poly`, which reduces with one `math.gcd`.  Only this
module reads the integers: `quad_eval` in its closed form, `grid_value` as
the unreduced pair (N, L*den**2) at a grid point k/den, and
`nonnegative_on` for the signs of the coefficients.

Order is one closed-form rule in integers, with no approximation and no
loop: `_sign(A, B, D)` is the sign of A + B*sqrt(D), the common sign of A
and B when they agree or one is 0, and otherwise sign(A)*sign(A^2 - B^2*D).
As C > 0, `sign` is `_sign(A, B, d)`.  `compare` clears the denominators of
the difference by C1*C2: within one field, or against a rational, that is
one call; across two fields it is the sign of S*sqrt(d1) + T*sqrt(d2),
never 0, and at most one more call (proofs in the docstrings of `_sign` and
`compare`).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Optional, Union

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


# the exponent of a decimal, as `Fraction` reads it
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or a decimal; malformed text raises ValueError.

    `Fraction` expands a decimal exponent into 10**|exponent|, in time that
    grows with it: "1e10000000" alone takes seconds.  So an exponent above
    the interpreter's int-digit limit (`sys.get_int_max_str_digits()`, 0 for
    none) is refused first.  Its power has more digits than that limit lets
    a literal have, and a literal beyond it is refused already.
    """
    text = text.strip()
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent and limit and abs(int(exponent.group(1))) > limit:
        raise ValueError(f"decimal exponent beyond the int-digit limit {limit} in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


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


def _canonical(A: int, B: int, C: int, d: int) -> "QuadraticIrrational":
    """Trusted constructor: the value (A + B*sqrt(d))/C, without factoring d.

    The caller guarantees that A, B and C are ints with C > 0, and that d is
    0 or a squarefree integer other than 1, with d == 0 only when B == 0.
    Here B == 0 collapses d to 0, and one gcd divides out the common factor
    of A, B and C.  The stored form is then the unique one: a value has one
    rational part a = A/C and one coefficient b = B/C, the radicand of an
    irrational is its field's squarefree d, and the lowest terms of the pair
    (a, b) over one positive denominator are (A, B, C) with gcd 1.  So two
    canonical values are equal exactly when their four integers are, and
    `__eq__` and `__hash__` compare them as stored.  Callers and why they
    qualify:

    - the ring operations: C is a product of positive denominators, and d
      is the radicand of an operand (`_field`), so it is 0 or squarefree
      and never 1.  A sum or product whose irrational part cancels (say a
      conjugate product) is rational and collapses here.
    - `sqrt`: d is the squarefree part returned by its one decomposition
      of num*den, with d == 1 handled there as a rational root.  It is the
      only caller that factors, so every irrational starts there.
    - `quad_eval`: d is the radicand of its argument x, and C = L*C_x**2.
      A value whose irrational part B_x*(A1*C_x + 2*A2*A_x) is 0 collapses
      here.
    """
    if not B:
        d = 0
    g = math.gcd(A, B, C)
    if g != 1:
        A //= g
        B //= g
        C //= g
    self = object.__new__(QuadraticIrrational)
    self._A, self._B, self._C, self._d = A, B, C, d
    return self


def _operand(x) -> Optional[tuple[int, int, int, int]]:
    """(A, B, C, d) of an operand: a quadratic irrational's own integers, an
    int n as (n, 0, 1, 0), a Fraction as (numerator, 0, denominator, 0);
    None for any other type."""
    if isinstance(x, QuadraticIrrational):
        return x._A, x._B, x._C, x._d
    if isinstance(x, int):
        return x, 0, 1, 0
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator, 0
    return None


class QuadraticIrrational:
    """Exact real value (A + B*sqrt(d))/C = a + b*sqrt(d), d squarefree.

    Canonical form (see `_canonical`): C > 0, gcd(A, B, C) = 1, d squarefree
    and not 1, and B == 0 iff d == 0.  Equality is then structural.
    Instances are immutable: the rational part `a`, the coefficient `b` and
    the radicand `d` are read-only properties, and the four integers are
    written only by the constructors.  `QuadraticIrrational(a)` embeds the
    rational a; an irrational is built from `sqrt` and the ring operations,
    for example `1 + 2 * QuadraticIrrational.sqrt(5)`.
    """

    __slots__ = ("_A", "_B", "_C", "_d")

    def __init__(self, a: RationalLike):
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        self._A, self._B, self._C, self._d = a.numerator, 0, a.denominator, 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, q: RationalLike) -> "QuadraticIrrational":
        """Exact square root of a nonnegative rational."""
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        n, m = q.numerator, q.denominator
        if n < 0:
            raise ValueError("square root of a negative rational")
        if n == 0:
            return cls(0)
        # sqrt(n/m) = sqrt(n*m)/m = s*sqrt(d)/m
        s, d = squarefree_decompose(n * m)
        if d == 1:
            return _canonical(s, 0, m, 0)
        return _canonical(0, s, m, d)

    # -- queries -----------------------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational part A/C."""
        return Fraction(self._A, self._C)

    @property
    def b(self) -> Fraction:
        """The coefficient B/C of sqrt(d)."""
        return Fraction(self._B, self._C)

    @property
    def d(self) -> int:
        """The radicand: 0 for a rational, else squarefree and not 1."""
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._d == 0

    def sign(self) -> int:
        """Exact sign of the value, in {-1, 0, 1}: that of A + B*sqrt(d), as C > 0."""
        return _sign(self._A, self._B, self._d)

    def floor_times(self, den: int) -> int:
        """floor(x*den) for a positive int den, in integers.

        x*den = (A*den + B*den*sqrt(d))/C.  When B = 0 that is the rational
        (A*den)/C, whose floor is `(A*den) // C`.  Otherwise d is squarefree
        and not 1, so B^2*den^2*d is not a square and B*den*sqrt(d) is not an
        integer; with r = isqrt(B^2*den^2*d), its floor s is r when B > 0 and
        -r - 1 when B < 0.  Then A*den + B*den*sqrt(d) lies strictly between
        the integers n = A*den + s and n + 1.  No multiple of C lies strictly
        between two consecutive integers, so dividing by C > 0 gives
        floor(x*den) = n // C.

        For an integer k, x < k/den exactly when floor(x*den) < k, since for
        a real y and an integer k, y < k and floor(y) < k agree.  So the
        thresholds of breakpoints place a grid point k/den among them
        without comparing it with any (`PiecewiseQuadratic.sample`).
        """
        A, B = self._A * den, self._B * den
        if B == 0:
            return A // self._C
        r = math.isqrt(B * B * self._d)
        return (A + (r if B > 0 else -r - 1)) // self._C

    # -- arithmetic (same-field or rational operands) ----------------------

    def _field(self, d: int) -> int:
        """The radicand of a result with an operand of radicand d."""
        if d and d != self._d:
            if self._d:
                raise ValueError(
                    f"values live in different quadratic fields (sqrt({self._d}) vs sqrt({d}))"
                )
            return d
        return self._d

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        A, B, C, d = o
        c = self._C
        return _canonical(self._A * C + A * c, self._B * C + B * c, c * C, self._field(d))

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self._A, -self._B, self._C, self._d)

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        A, B, C, d = o
        c = self._C
        return _canonical(self._A * C - A * c, self._B * C - B * c, c * C, self._field(d))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        A, B, C, d = o
        d = self._field(d)
        a, b = self._A, self._B
        return _canonical(a * A + b * B * d, a * B + b * A, self._C * C, d)

    __rmul__ = __mul__

    # -- order -------------------------------------------------------------

    def compare(self, other) -> int:
        """Exact three-way comparison, valid across different fields.

        The difference (A1 + B1*sqrt(d1))/C1 - (A2 + B2*sqrt(d2))/C2 times
        C1*C2 > 0 is R + S*sqrt(d1) + T*sqrt(d2) with the integers
        R = A1*C2 - A2*C1, S = B1*C2 and T = -B2*C1.  Canonical forms give
        S = 0 when d1 = 0 and T = 0 when d2 = 0.

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
        o = _operand(other)
        if o is None:
            raise TypeError(f"cannot compare with {other!r}")
        A2, B2, C2, d2 = o
        C1, d1 = self._C, self._d
        R = self._A * C2 - A2 * C1
        S = self._B * C2
        T = -B2 * C1
        if d1 == 0 or d2 == 0 or d1 == d2:
            return _sign(R, S + T, d1 or d2)
        u = _sign(S * abs(S) * d1 + T * abs(T) * d2, 0, 0)
        if R * u >= 0:
            return u
        return -u * _sign(R * R - S * S * d1 - T * T * d2, -2 * S * T, d1 * d2)

    def __eq__(self, other):
        if isinstance(other, QuadraticIrrational):
            return (
                self._A == other._A and self._B == other._B
                and self._C == other._C and self._d == other._d
            )
        if isinstance(other, int):
            return self._d == 0 and self._C == 1 and self._A == other
        if isinstance(other, Fraction):
            return (
                self._d == 0 and self._A == other.numerator and self._C == other.denominator
            )
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
        """A rational hashes as its Fraction (so as its int when C == 1);
        an irrational as its four integers."""
        if self._d == 0:
            return hash(self._A) if self._C == 1 else hash(Fraction(self._A, self._C))
        return hash((self._A, self._B, self._C, self._d))

    def __float__(self):
        """The correctly rounded float of the value; OverflowError when that
        is beyond float range, as `int / int` and `float(Fraction)` raise.

        A rational is A / C, an `int / int`, which is correctly rounded.  For
        an irrational x = (A + B*sqrt(d))/C, take an e >= 0 and
        n = floor(x*2^e) with |n| >= 2^54; then x lies strictly between n/2^e
        and (n + 1)/2^e, as x*2^e is irrational, and so does the midpoint
        (2n + 1)/2^(e+1).  Where |y| >= 2^(53-e), consecutive floats are at
        least 2^(1-e) apart, so every rounding boundary there (the midpoint
        of two consecutive floats, or of the largest float and the overflow
        threshold) is an integer multiple of 2^-e, and none lies strictly
        between n/2^e and (n + 1)/2^e.  So x and the midpoint round to the
        same float, and `int / int` rounds the midpoint correctly.

        Choice of e.  A^2 - B^2*d is a nonzero integer, as d is not a square,
        so |A + B*sqrt(d)| = |A^2 - B^2*d| / |A - B*sqrt(d)| >= 1/S with
        S = |A| + |B|*d, and |x| >= 1/(C*S).  So e0 = 55 + bits(C) + bits(S)
        gives |x*2^e0| > 2^55 and |n0| >= 2^55 for n0 = `floor_times(2^e0)`.
        Shifting n0 right by s = min(bits(|n0|) - 56, e0) is floor division
        by 2^s, so it gives n = floor(x*2^e) for e = e0 - s >= 0, and
        |n| >= 2^55 still; n then has 56 bits unless e reached 0, so the
        division stays small however large C and S are.
        """
        A, B, C = self._A, self._B, self._C
        if not B:
            return A / C
        e = 55 + C.bit_length() + (abs(A) + abs(B) * self._d).bit_length()
        n = self.floor_times(1 << e)
        s = min(abs(n).bit_length() - 56, e)
        n, e = n >> s, e - s
        return (2 * n + 1) / 2 ** (e + 1)

    # -- text --------------------------------------------------------------

    def __str__(self):
        if self._d == 0:
            return format_rational(self.a)
        sign = "+" if self._B >= 0 else "-"
        return f"{format_rational(self.a)}{sign}{format_rational(abs(self.b))}*sqrt({self._d})"

    def __repr__(self):
        rational = f"QuadraticIrrational({self.a!r})"
        if self._d == 0:
            return rational
        return f"{rational} + {self.b!r} * QuadraticIrrational.sqrt({self._d})"


def _poly(A0: int, A1: int, A2: int, L: int) -> "QuadPoly":
    """Trusted constructor: the polynomial (A0 + A1*x + A2*x**2)/L.

    The caller guarantees ints with L > 0; one gcd divides out the common
    factor of A0, A1, A2 and L.  The stored form is then the unique one.
    Say (A0, A1, A2, L) and (B0, B1, B2, M) both have gcd 1, L, M > 0 and
    the same coefficients Ai/L = Bi/M.  Write L = g*l and M = g*m with
    g = gcd(L, M), so gcd(l, m) = 1.  Then Ai*m = Bi*l, so l divides every
    Ai; l also divides L, so l divides gcd(A0, A1, A2, L) = 1.  Likewise
    m = 1, so L = M and Ai = Bi.  Two polynomials are therefore equal exactly
    when their four integers are, and `__eq__` and `__hash__` compare them as
    stored.  Callers: `+`, `neg`, `reflect` and `derivative`, whose L is a
    product of positive denominators.
    """
    g = math.gcd(A0, A1, A2, L)
    if g != 1:
        A0 //= g
        A1 //= g
        A2 //= g
        L //= g
    self = object.__new__(QuadPoly)
    self._A0, self._A1, self._A2, self._L = A0, A1, A2, L
    return self


class QuadPoly:
    """Polynomial c0 + c1*x + c2*x**2 with rational coefficients.

    Held as four integers, the polynomial (A0 + A1*x + A2*x**2)/L with L > 0
    and gcd(A0, A1, A2, L) = 1.  That form is unique (proof in `_poly`), so
    equality is structural.  Instances are immutable: the coefficients `c0`,
    `c1` and `c2` are read-only `Fraction` properties, and the integers are
    written only by the constructors.  `QuadPoly(c0, c1, c2)` takes L as the
    lcm of the coefficients' reduced denominators and Ai = ci*L.  That is
    already the unique form: a prime power p^e exactly dividing L exactly
    divides the denominator of some ci, so p divides L but not that
    Ai = numerator(ci)*(L/denominator(ci)).
    """

    __slots__ = ("_A0", "_A1", "_A2", "_L")

    def __init__(self, c0: RationalLike, c1: RationalLike = 0, c2: RationalLike = 0):
        c0, c1, c2 = (c if isinstance(c, (int, Fraction)) else Fraction(c) for c in (c0, c1, c2))
        q0, q1, q2 = c0.denominator, c1.denominator, c2.denominator
        L = math.lcm(q0, q1, q2)
        self._A0, self._A1, self._A2, self._L = (
            c0.numerator * (L // q0), c1.numerator * (L // q1), c2.numerator * (L // q2), L
        )

    @property
    def c0(self) -> Fraction:
        """The constant coefficient A0/L."""
        return Fraction(self._A0, self._L)

    @property
    def c1(self) -> Fraction:
        """The coefficient A1/L of x."""
        return Fraction(self._A1, self._L)

    @property
    def c2(self) -> Fraction:
        """The coefficient A2/L of x**2."""
        return Fraction(self._A2, self._L)

    def __add__(self, other: "QuadPoly") -> "QuadPoly":
        L, M = self._L, other._L
        return _poly(self._A0 * M + other._A0 * L, self._A1 * M + other._A1 * L,
                     self._A2 * M + other._A2 * L, L * M)

    def __neg__(self) -> "QuadPoly":
        return _poly(-self._A0, -self._A1, -self._A2, self._L)

    def __sub__(self, other: "QuadPoly") -> "QuadPoly":
        return self + -other

    def reflect(self) -> "QuadPoly":
        """The polynomial x -> p(-x)."""
        return _poly(self._A0, -self._A1, self._A2, self._L)

    def derivative(self) -> "QuadPoly":
        return _poly(self._A1, 2 * self._A2, 0, self._L)

    def grid_value(self, k: int, den: int) -> tuple[int, int]:
        """The value at k/den, for a positive int den, as the unreduced pair
        (N, M) of ints with value N/M and M > 0:
        p(k/den) = (A0*den**2 + A1*k*den + A2*k**2) / (L*den**2), so
        N = (A0*den + A1*k)*den + A2*k**2 and M = L*den**2.  No Fraction is
        built, and `N / M` is the correctly rounded float of the value."""
        return (self._A0 * den + self._A1 * k) * den + self._A2 * k * k, self._L * den * den

    def nonnegative_on(self, lo: Optional[QuadraticIrrational],
                       hi: Optional[QuadraticIrrational]) -> bool:
        """Whether p >= 0 on the interval [lo, hi], an end None being unbounded.

        ci has the sign of Ai, as L > 0.  As x -> +infinity, p(x) has the sign
        of its leading coefficient, the first nonzero of A2, A1, A0 (the
        value of `A2 or A1 or A0`); as x -> -infinity, that of p(-x), the
        first nonzero of A2, -A1, A0.  Those two tests settle the unbounded
        ends, and `quad_eval` the bounded ones.  In between, a concave or
        linear p (A2 <= 0) takes no value below both ends, nor below its
        limit at an unbounded end.  A convex p (A2 > 0) does so only at its
        vertex -A1/(2*A2) when that lies strictly inside; otherwise p is
        monotone on the interval and its least value is at a bounded end.
        The zero polynomial passes every test.
        """
        A0, A1, A2 = self._A0, self._A1, self._A2
        if (hi is None and (A2 or A1 or A0) < 0) or (lo is None and (A2 or -A1 or A0) < 0):
            return False
        if any(end is not None and quad_eval(self, end).sign() < 0 for end in (lo, hi)):
            return False
        if A2 > 0:
            vertex = _canonical(-A1, 0, 2 * A2, 0)
            if (lo is None or lo < vertex) and (hi is None or vertex < hi):
                return quad_eval(self, vertex).sign() >= 0
        return True

    def __eq__(self, other):
        if not isinstance(other, QuadPoly):
            return NotImplemented
        return (self._A0, self._A1, self._A2, self._L) == (
            other._A0, other._A1, other._A2, other._L)

    def __hash__(self):
        return hash((self._A0, self._A1, self._A2, self._L))

    def __repr__(self):
        return f"QuadPoly({self.c0!r}, {self.c1!r}, {self.c2!r})"

    def __str__(self):
        return (
            f"{format_rational(self.c0)} + {format_rational(self.c1)}*x"
            f" + {format_rational(self.c2)}*x^2"
        )


def quad_eval(p: QuadPoly, x) -> QuadraticIrrational:
    """Exact value p(x); the result stays in the field Q(sqrt(d)) of x.

    With p = (A0 + A1*x + A2*x**2)/L (the integers of `QuadPoly`) and
    x = (A + B*sqrt(d))/C, expanding with sqrt(d)**2 = d gives the closed form
    p(x) = (N0 + N1*sqrt(d)) / (L*C**2) with the integers
    N0 = (A0*C + A1*A)*C + A2*(A**2 + B**2*d)  and  N1 = B*(A1*C + 2*A2*A):
    A0*C**2 is the constant term, A1*C*(A + B*sqrt(d)) the linear one, and
    A2*(A + B*sqrt(d))**2 = A2*(A**2 + B**2*d) + 2*A2*A*B*sqrt(d).  d is the
    radicand of x and L*C**2 > 0, so the trusted `_canonical` builds the
    result and collapses it to a rational when N1 is 0.
    """
    o = _operand(x)
    if o is None:
        raise TypeError("quad_eval expects a QuadraticIrrational or rational")
    A, B, C, d = o
    A0, A1, A2, L = p._A0, p._A1, p._A2, p._L
    return _canonical(
        (A0 * C + A1 * A) * C + A2 * (A * A + B * B * d),
        B * (A1 * C + 2 * A2 * A),
        L * C * C,
        d,
    )
