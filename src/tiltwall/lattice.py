"""Surface configuration, Chern classes and pointwise tilt-stability quantities.

Classes live in the lattice v = (v0, v1, v2) = (L^2*ch0, L*ch1, ch2).  The
vertical coordinate of the parameter plane is a = alpha^2/2, kept rational so
that every wall datum stays rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .exactnum import QuadPoly, QuadraticIrrational, format_rational, parse_rational

INF = math.inf  # +infinity slope marker

Slope = Union[Fraction, float]


class LatticeError(ValueError):
    """A class violates the lattice constraints of a surface configuration."""


_CONFIG_FIELDS = ("l2", "v0_step", "v1_step", "v2_denominator", "minimal_discriminant")


@dataclass(frozen=True)
class SurfaceConfig:
    """Numerical data of a polarized surface with Picard rank 1."""

    l2: int
    v0_step: int
    v1_step: int
    v2_denominator: int
    minimal_discriminant: int
    name: str = "custom"

    def __post_init__(self):
        for field in _CONFIG_FIELDS:
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")

    @classmethod
    def preset(cls, name: str) -> "SurfaceConfig":
        if name == "ppas":
            return cls(2, 2, 2, 2, 4, name="ppas")
        if name == "abelian-(1,2)":
            return cls(4, 4, 4, 2, 4, name="abelian-(1,2)")
        raise KeyError(f"unknown surface preset: {name}")

    def check_class(self, v: "ChernClass") -> None:
        if v.v0 % self.v0_step:
            raise LatticeError(f"v0={v.v0} is not a multiple of {self.v0_step}")
        if v.v1 % self.v1_step:
            raise LatticeError(f"v1={v.v1} is not a multiple of {self.v1_step}")
        if self.v2_denominator % v.v2.denominator:
            raise LatticeError(
                f"v2={v.v2} has denominator not dividing {self.v2_denominator}"
            )

    def to_json(self) -> dict:
        return {field: getattr(self, field) for field in _CONFIG_FIELDS}

    @classmethod
    def from_json(cls, data) -> "SurfaceConfig":
        """Config from its JSON object; malformed data raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        for field in _CONFIG_FIELDS:
            if field not in data:
                raise ValueError(f"config is missing {field!r}")
            value = data[field]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"config field {field!r} must be an integer, got {value!r}")
        name = data.get("name", "custom")
        if not isinstance(name, str):
            raise ValueError(f"config name must be a string, got {name!r}")
        return cls(*(data[field] for field in _CONFIG_FIELDS), name=name)


@dataclass(frozen=True)
class ChernClass:
    """Integral class (v0, v1, v2) with v2 rational."""

    v0: int
    v1: int
    v2: Fraction

    def __init__(self, v0: int, v1: int, v2):
        object.__setattr__(self, "v0", int(v0))
        object.__setattr__(self, "v1", int(v1))
        object.__setattr__(self, "v2", v2 if isinstance(v2, Fraction) else Fraction(v2))

    def __str__(self):
        return f"({self.v0},{self.v1},{format_rational(self.v2)})"

    def to_json(self) -> list:
        return [self.v0, self.v1, format_rational(self.v2)]

    @classmethod
    def from_json(cls, data) -> "ChernClass":
        if not isinstance(data, (list, tuple)) or len(data) != 3:
            raise ValueError(f"class must be a list [v0, v1, v2], got {data!r}")
        v0, v1, v2 = data
        if not all(isinstance(x, (int, str)) and not isinstance(x, bool) for x in (v0, v1)):
            raise ValueError(f"class ranks and degrees must be integers, got {data!r}")
        return cls(int(v0), int(v1), parse_rational(str(v2)))

    @classmethod
    def parse(cls, text: str) -> "ChernClass":
        """Parse a comma-separated triple like "2,0,-5" or "2,0,-5/2"."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated components: {text!r}")
        return cls(int(parts[0]), int(parts[1]), parse_rational(parts[2]))


class TwistedClass(NamedTuple):
    """Components of the beta-twisted Chern character."""

    t0: Fraction
    t1: Fraction
    t2: Fraction


def _twist_integers(v: ChernClass, beta) -> tuple[int, int, int, int]:
    """(m, q, T1, T2) with beta = k/m and v2 = n/q in lowest terms (m, q > 0):
    ch1^beta(v) = T1/m and ch2^beta(v) = T2/(2*m^2*q), where

        T1 = v1*m - k*v0,  T2 = 2*m^2*n - 2*k*m*q*v1 + k^2*q*v0.
    """
    if not isinstance(beta, (int, Fraction)):
        beta = Fraction(beta)
    k, m = beta.numerator, beta.denominator
    n, q = v.v2.numerator, v.v2.denominator
    return m, q, v.v1 * m - k * v.v0, 2 * m * m * n - 2 * k * m * q * v.v1 + k * k * q * v.v0


def twist(v: ChernClass, beta) -> TwistedClass:
    """Twisted character at beta: (v0, v1 - beta*v0, v2 - beta*v1 + (beta^2/2)*v0).

    With beta = k/m and v2 = n/q each component is one quotient of integers:
    t1 = (v1*m - k*v0)/m and t2 = (2*m^2*n - 2*k*m*q*v1 + k^2*q*v0)/(2*m^2*q)
    (`_twist_integers`).
    """
    m, q, t1, t2 = _twist_integers(v, beta)
    return TwistedClass(Fraction(v.v0), Fraction(t1, m), Fraction(t2, 2 * m * m * q))


def discriminant(v: ChernClass) -> Fraction:
    """The quadratic form v1^2 - 2*v0*v2 (invariant under twisting).

    With v2 = n/q it is the one quotient of integers (v1^2*q - 2*v0*n)/q.
    """
    n, q = v.v2.numerator, v.v2.denominator
    return Fraction(v.v1 * v.v1 * q - 2 * v.v0 * n, q)


def central_charge(v: ChernClass, a, beta) -> tuple[Fraction, Fraction]:
    """(Re, Im) of the central charge at height a = alpha^2/2 >= 0."""
    a = Fraction(a)
    if a < 0:
        raise ValueError("a = alpha^2/2 must be nonnegative")
    t = twist(v, beta)
    return (-(t.t2 - a * t.t0), t.t1)


def tilt_slope(v: ChernClass, a, beta) -> Slope:
    """Tilt slope -Re/Im = (ch2^beta(v) - a*v0)/ch1^beta(v) at height a >= 0;
    +infinity when the imaginary part ch1^beta(v) vanishes.

    With beta = k/m, v2 = n/q and a = p/s in lowest terms, and T1, T2 of
    `_twist_integers`, ch2^beta(v) - a*v0 = (T2*s - 2*m^2*q*p*v0)/(2*m^2*q*s)
    and ch1^beta(v) = T1/m, so the slope is the one quotient of integers

        (T2*s - 2*m^2*q*p*v0) / (2*m*q*s*T1),

    and it is +infinity exactly when T1 = v1*m - k*v0 = 0.
    """
    if not isinstance(a, (int, Fraction)):
        a = Fraction(a)
    if a < 0:
        raise ValueError("a = alpha^2/2 must be nonnegative")
    m, q, t1, t2 = _twist_integers(v, beta)
    if t1 == 0:
        return INF
    p, s = a.numerator, a.denominator
    return Fraction(t2 * s - 2 * m * m * q * p * v.v0, 2 * m * q * s * t1)


def mu_slope(v: ChernClass) -> Slope:
    """Classical slope v1/v0; +infinity for torsion classes."""
    if v.v0 == 0:
        return INF
    return Fraction(v.v1, v.v0)


def chd_polynomial(v: ChernClass) -> QuadPoly:
    """The Chern degree polynomial x -> v2 + v1*x + (v0/2)*x^2 (= ch2^{-x})."""
    return QuadPoly(v.v2, v.v1, Fraction(v.v0, 2))


def p_intercept(v: ChernClass) -> QuadraticIrrational:
    """Beta-intercept p_v of the hyperbola of v at alpha = 0, in closed form.

    ch2^beta(v) = (v0/2)*beta^2 - v1*beta + v2 has discriminant disc(v).  For
    v0 != 0 its roots are (v1 -+ sqrt(disc))/v0, and p_v = (v1 - sqrt(disc))/v0:
    the smaller root when v0 > 0, the larger one when v0 < 0.  So
    v1 - v0*p_v = sqrt(disc), the derivative jump of chd0 at -p_v (see
    `hntree.ValidationReport.breakpoints`).  For v0 = 0 the equation is linear and
    p_v = v2/v1.  The one square root is `QuadraticIrrational.sqrt(disc)`.
    """
    if v.v0 == 0:
        if v.v1 == 0:
            raise ValueError("no hyperbola: v0 = v1 = 0")
        return QuadraticIrrational(v.v2 / v.v1)
    disc = discriminant(v)
    if disc < 0:
        raise ValueError("no real intercept: negative discriminant")
    return (v.v1 - QuadraticIrrational.sqrt(disc)) * Fraction(1, v.v0)


def class_add(v: ChernClass, w: ChernClass) -> ChernClass:
    return ChernClass(v.v0 + w.v0, v.v1 + w.v1, v.v2 + w.v2)


def line_bundle_class(k: int, cfg: SurfaceConfig) -> ChernClass:
    """Class of the k-th power of the polarization: (L^2, k*L^2, k^2*L^2/2)."""
    v = ChernClass(cfg.l2, k * cfg.l2, Fraction(k * k * cfg.l2, 2))
    cfg.check_class(v)
    return v
