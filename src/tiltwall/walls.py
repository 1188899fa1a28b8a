"""Numerical wall geometry and finite enumeration of candidate destabilizers.

Walls are loci of equal tilt slope for two classes: semicircles centered on
the beta-axis (stored by rational center and radius squared) or vertical
lines.  Enumeration searches the lattice for subobject classes w whose wall
crosses a vertical segment {beta = beta*, a in [a_min, a_max]}, or the
half-line a >= a_min when no a_max is given.

The search is finite and complete, and it needs no top.  At the crossing
point both the sub w and the quotient v - w have nonnegative discriminant;
each condition puts a lower bound on its share of ch1^beta*(v), and the two
shares add up to it.  That bounds |w0| + |v0 - w0|, hence the rank window,
by an exact test at a_min (``_w0_bound``, whose docstring has the proof):
the window stays a few ranks wide as a_min shrinks, where Delta(w) >= 0
alone gave one that grows like 1/a_min.  Inside the window, w1 runs over
0 < ch1^beta*(w) <= ch1^beta*(v).  For fixed w0 and w1, the height at which
the wall of w crosses beta = beta* is an affine function of w2, and so are
disc(w) and disc(v - w) at that height; w2 therefore runs only over the
image of the heights where both discriminants are nonnegative, which is a
bounded interval even without a_max.  That window decides everything but
the discriminant spectrum: each w in it has a semicircular wall crossing
the segment, a discriminant drop disc(w) + disc(v - w) < disc(v), and stays
in the heart at the top of its wall, so ``_screen_candidate`` tests only
that both discriminants are 0 or multiples of the minimal discriminant
(``_kept_candidates``, whose docstring has the proofs).

The search inside the rank window is integer arithmetic.  With beta* = p/q
and v2 = n/d, each (w0, w1) gets integer half-line thresholds and w2 bounds,
compared by cross-multiplication and rounded with floor division; the
spectrum test is two congruences on scaled discriminants.  The survivors
come in pairs {w, v - w} with one wall; the search keeps the smaller member
of each pair, as the only class it builds, and as the smaller member has
2*w0 <= v0 its rank loop stops at v0 // 2.  ``_kept_candidates`` is that
search, one generator over w0, w1 and w2; ``enumerate_candidates`` checks
the query, groups the kept classes by ``wall_between`` and takes each
wall's crossing height from ``wall_a_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

from .exactnum import format_rational, parse_rational
from .lattice import (
    ChernClass,
    SurfaceConfig,
    discriminant,
    mu_slope,
    twist,
)


@dataclass(frozen=True)
class Semicircle:
    center: Fraction
    radius_sq: Fraction

    def __post_init__(self):
        if self.radius_sq <= 0:
            raise ValueError("degenerate semicircle: radius_sq must be positive")

    def __str__(self):
        return f"semicircle(center={format_rational(self.center)}, radius_sq={format_rational(self.radius_sq)})"

    def to_json(self) -> dict:
        return {
            "kind": "semicircle",
            "center": format_rational(self.center),
            "radius_sq": format_rational(self.radius_sq),
        }


@dataclass(frozen=True)
class VerticalWall:
    beta: Fraction

    def __str__(self):
        return f"vertical(beta={format_rational(self.beta)})"

    def to_json(self) -> dict:
        return {"kind": "vertical", "beta": format_rational(self.beta)}


NumericalWall = Union[Semicircle, VerticalWall]


def wall_from_json(data: dict) -> NumericalWall:
    """The wall of either `to_json` form; any other data raises ValueError.

    Besides "kind", a wall has exactly the keys of one form: "center" and
    "radius_sq", or "beta".  "kind" may be left out; when given it must
    name that form.
    """
    keys = set(data) - {"kind"}
    if keys == {"beta"} and data.get("kind", "vertical") == "vertical":
        return VerticalWall(parse_rational(str(data["beta"])))
    if keys == {"center", "radius_sq"} and data.get("kind", "semicircle") == "semicircle":
        return Semicircle(
            parse_rational(str(data["center"])), parse_rational(str(data["radius_sq"]))
        )
    raise ValueError(
        'a wall has exactly the keys "center" and "radius_sq" or exactly "beta", '
        'and an optional "kind" naming that form'
    )


def wall_between(v: ChernClass, w: ChernClass) -> Optional[NumericalWall]:
    """The numerical wall where v and w have equal tilt slope, if any.

    Returns None for proportional classes and for degenerate loci (empty
    semicircles).

    With d01 = v0*w1 - v1*w0, d02 = v0*w2 - v2*w0 and d12 = v1*w2 - v2*w1
    the wall is the semicircle of center d02/d01 and radius_sq
    (d02/d01)^2 - 2*d12/d01 when d01 != 0 (Maciocia), and the vertical line
    beta = d12/d02 when d01 = 0 and d02 != 0.  With v2 = n/q and w2 = m/r in
    lowest terms, d02 = N02/(q*r) and d12 = N12/(q*r) with

        N02 = v0*m*q - n*w0*r,  N12 = v1*m*q - n*w1*r,

    so, putting D = q*r*d01, the center is N02/D and radius_sq is
    (N02^2 - 2*N12*D)/D^2, empty (None) when that numerator is <= 0, and
    the vertical wall is beta = N12/N02.  Each value is one quotient of
    integers.
    """
    n, q = v.v2.numerator, v.v2.denominator
    m, r = w.v2.numerator, w.v2.denominator
    d01 = v.v0 * w.v1 - v.v1 * w.v0
    n02 = v.v0 * m * q - n * w.v0 * r
    n12 = v.v1 * m * q - n * w.v1 * r
    if d01 != 0:
        d = q * r * d01
        radius_num = n02 * n02 - 2 * n12 * d
        if radius_num <= 0:
            return None
        return Semicircle(Fraction(n02, d), Fraction(radius_num, d * d))
    if n02 != 0:
        return VerticalWall(Fraction(n12, n02))
    return None


def wall_a_at(wall: NumericalWall, beta) -> Optional[Fraction]:
    """Height a of a semicircular wall above beta, or None if beta is outside."""
    if isinstance(wall, VerticalWall):
        raise ValueError("no height: vertical wall")
    beta = Fraction(beta)
    offset_sq = (beta - wall.center) ** 2
    if offset_sq > wall.radius_sq:
        return None
    return (wall.radius_sq - offset_sq) / 2


class Nesting(Enum):
    DISJOINT = "disjoint"
    NESTED = "nested"
    EQUAL = "equal"
    CROSSING = "crossing"


def nesting(w1: NumericalWall, w2: NumericalWall) -> Nesting:
    """Exact containment classification of two semicircles, radical-free.

    Compares the squared center distance D against (r1 +- r2)^2 via
    A = D - r1^2 - r2^2 and the sign/square of A, avoiding square roots.
    NESTED means that one semicircle lies strictly inside the other; the
    inner one is the one of smaller radius (equal radii are never NESTED).
    """
    if not isinstance(w1, Semicircle) or not isinstance(w2, Semicircle):
        raise ValueError("nesting is defined for semicircular walls only")
    if w1 == w2:
        return Nesting.EQUAL
    dist_sq = (w1.center - w2.center) ** 2
    a = dist_sq - w1.radius_sq - w2.radius_sq
    cross_term = 4 * w1.radius_sq * w2.radius_sq
    if a > 0 and a * a > cross_term:
        return Nesting.DISJOINT
    if a < 0 and a * a > cross_term:
        return Nesting.NESTED
    return Nesting.CROSSING


@dataclass(frozen=True)
class WallCandidate:
    wall: Semicircle
    cross_a: Fraction
    witnesses: tuple[ChernClass, ...]

    @property
    def witness(self) -> ChernClass:
        """The primary witness: the first, so the smallest, of the witnesses."""
        return self.witnesses[0]


def _w0_bound(v: ChernClass, beta_star: Fraction, a_min: Fraction) -> int:
    """Largest |w0| of any candidate crossing the segment (exact, complete).

    The window is [min(0, v0) - d, max(0, v0) + d] with d = bound - |v0|;
    every kept candidate (as defined in ``_kept_candidates``) has its
    rank in it.

    Proof.  Write t_v = ch1^b(v) > 0 and c = ch2^b(v) at b = beta*, and for a
    candidate w let t = w1 - beta*w0, q = v - w, q0 = v0 - w0, s = t_v - t.
    The enumeration visits exactly 0 < t <= t_v, so 0 <= s < t_v.  A kept
    candidate has disc(w) >= 0, disc(q) >= 0 and its wall meets beta = beta*
    at a = cross_a >= a_min.  At that point the central charges of
    v and w are R-collinear, so with nu = (c - a*v0)/t_v (the tilt slope of
    v; any sign) ch2^b(w) - a*w0 = nu*t and ch2^b(q) - a*q0 = nu*s, and by
    twist invariance

        disc(w) = t^2 - 2*nu*w0*t - 2*a*w0^2,
        disc(q) = s^2 - 2*nu*q0*s - 2*a*q0^2.

    For x >= 0 and a > 0, x^2 - 2*nu*c0*x - 2*a*c0^2 >= 0 holds iff
    x >= R(c0) = nu*c0 + |c0|*sqrt(nu^2 + 2a): the other root is <= 0 (the
    product of the roots is -2a*c0^2 <= 0).  This needs no sign of nu, so
    it holds on both sides of the point where the segment meets the
    hyperbola nu = 0 (ch2^beta(v) = a*v0), and so on a segment on which nu
    changes sign.  Adding t >= R(w0) and s >= R(q0), with w0 + q0 = v0 and
    K = |w0| + |q0|:

        nu*v0 + K*sqrt(nu^2 + 2a) <= t_v.

    Multiply by t_v > 0 and put D(a) = (c - a*v0)^2 + 2a*t_v^2 > 0 and
    N(a) = t_v^2 - v0*c + a*v0^2 = (disc(v) + t_v^2)/2 + a*v0^2 > 0:
    K*sqrt(D(a)) <= N(a), and as both sides are positive, K^2*D(a) <= N(a)^2.
    Expanding gives the identity N(a)^2 - v0^2*D(a) = disc(v)*t_v^2 (the
    a-terms cancel), so the condition reads

        (K^2 - v0^2) * D(a) <= disc(v) * t_v^2.

    D'(a) = 2*N(a) > 0, so D increases on a >= 0 and D(a) >= D(a_min) on the
    segment, and no top of the segment enters the bound.  Finally
    K = |v0| + 2*dist(w0, [min(0, v0), max(0, v0)]), so with d that distance
    K^2 - v0^2 = 4*d*(d + |v0|), and every candidate satisfies

        d*(d + |v0|) <= C = disc(v)*t_v^2 / (4*D(a_min)).

    The left side is an integer, so this is d*(d + |v0|) <= floor(C), i.e.
    (2d + |v0|)^2 <= 4*floor(C) + v0^2, whose largest solution is
    d = (isqrt(4*floor(C) + v0^2) - |v0|) // 2 >= 0.  Everything above is
    exact rational and integer arithmetic.
    """
    tv = twist(v, beta_star)
    t_v, c = tv.t1, tv.t2
    d_min = (c - a_min * v.v0) ** 2 + 2 * a_min * t_v * t_v
    floor_c = math.floor(discriminant(v) * t_v * t_v / (4 * d_min))
    m = abs(v.v0)
    return m + (math.isqrt(4 * floor_c + m * m) - m) // 2


def _kept_candidates(
    v: ChernClass,
    beta_star: Fraction,
    a_min: Fraction,
    a_max: Optional[Fraction],
    cfg: SurfaceConfig,
) -> Iterator[ChernClass]:
    """Kept candidates w with w < v - w, in lexicographic order.

    w0 runs over the rank window of ``_w0_bound`` up to v0 // 2, w1 over
    0 < ch1^beta*(w) <= ch1^beta*(v) and w2 over a crossing-height window,
    each ascending, and w < v - w is the lexicographic order of the
    triples; ``enumerate_candidates`` proves that on cfg's lattice this
    yields exactly one member of each pair {w, v - w} of kept candidates.

    A candidate w is kept when 0 < ch1^beta*(w) <= ch1^beta*(v), its wall
    with v is a semicircle that meets beta = beta* at a height in
    [a_min, a_max] (a_max None is +inf: the query has no top), w stays in
    the heart at the top of the wall (0 < ch1^center(w) <= ch1^center(v)),
    disc(w) and disc(v - w) lie in the discriminant spectrum (0 or a
    multiple of the minimal discriminant, so in particular >= 0), and
    disc(w) + disc(v - w) <= disc(v).  Every kept candidate lies in the w2
    window of its (w0, w1), and every w in it meets all of these conditions
    but the spectrum, which is the one test ``_screen_candidate`` makes.
    The sum condition holds strictly (part 2), so asking for < instead of
    <= would change nothing.

    Notation.  Write b = beta* = p/q and v2 = n/d in lowest terms (q, d > 0),
    den = v2_denominator and w2 = k/den.  At b put t_v = ch1^b(v) > 0,
    c = ch2^b(v), and for w = (w0, w1, w2) let t = w1 - b*w0, s = t_v - t,
    u = v - w, u0 = v0 - w0 and x = ch2^b(w) = w2 - b*w1 + b^2*w0/2.  The
    search runs on the integers

        T_v = q*t_v = q*v1 - p*v0,        T = q*t = q*w1 - p*w0,
        S = q*s = T_v - T,                C = 2*d*q^2*c
          = 2*q^2*n - 2*d*p*q*v1 + d*p^2*v0,
        G = w0*T_v - T*v0 = w0*S - u0*T,

    and each rational it needs is a quotient of two of them.  The w1 loop
    visits exactly the multiples of v1_step with 0 < T <= T_v, so
    0 <= S < T_v.  As t and t_v are positive, the tilt slopes of v and w
    agree at (b, a) iff

        E = (c - a*v0)*t - (x - a*w0)*t_v = 0,  i.e.  x = t*c/t_v + a*g,

    with g = G/T_v, of the sign of G.  Written at a general beta in place
    of b, E = -(d01/2)*((beta - center)^2 + 2a - radius_sq) with d01,
    center and radius_sq as in ``wall_between``, so a semicircular wall is
    exactly the zero set of E, and d01 = v0*w1 - v1*w0 = -g*t_v = -G/q.

    G = 0: then d01 = 0 and ``wall_between`` gives a vertical wall or None,
    never a semicircle, so no w2 is kept and the w1 is skipped.  This covers
    w0 = v0 = 0, where G vanishes for every w1; for v0 = 0 and w0 != 0 we
    have G = w0*T_v != 0, and for w0 = 0 and v0 != 0 G = -T*v0 != 0 as
    T > 0, so no other case needs its own branch.

    The window, G != 0.  A kept candidate meets beta = b at a height a with
    a_min <= a <= a_max, and there x = t*c/t_v + a*g.  Substituting x into
    the twist-invariant discriminants disc(w) = t^2 - 2*w0*x and
    disc(u) = s^2 - 2*u0*(c - x), and multiplying by d*q^2*T_v > 0:

        d*q^2*T_v*disc(w) = T*(d*T*T_v - w0*C) - 2*d*q^2*w0*G * a,
        d*q^2*T_v*disc(u) = S*(d*S*T_v - u0*C) + 2*d*q^2*u0*G * a,

    both affine in a with integer coefficients.  Each of disc(w) >= 0 and
    disc(u) >= 0 is alpha + sigma*a >= 0: a >= -alpha/sigma if sigma > 0,
    a <= -alpha/sigma if sigma < 0, and every a if sigma = 0.  (sigma = 0
    means w0 = 0 in the first, where alpha = d*T^2*T_v > 0, or u0 = 0 in
    the second, where alpha = d*S^2*T_v >= 0: neither half-line is ever
    empty.)  So a lies in the interval I = [a_lo, a_hi] cut from
    [a_min, a_max] by the two half-lines; its ends are kept as integer
    pairs (numerator, denominator > 0) and compared by cross-multiplication.
    The map a -> x is affine with slope g, and w2 = x + b*w1 - b^2*w0/2, so

        w2 = e(a) = (H + K*G*a) / (K*T_v),
        K = 2*d*q^2,  H = T*C + d*T_v*p*(q*w1 + T),

    increasing in a for G > 0 and decreasing for G < 0.  So w2 = k/den lies
    between e1 = e(a_lo) and e2 = e(a_hi) for G > 0 (the other way round
    for G < 0), i.e. ceil(den*e1) <= k <= floor(den*e2), both taken with
    integer floor division of numerator by positive denominator.  Each k in
    that range gives a w whose x is x(a) for exactly one a in I.  The four
    parts below fix such a w and its a; a >= a_min > 0.

    1. Window => wall and range.  d01 = -G/q != 0, and (b, a) lies on the
    zero set of E, so radius_sq = (b - center)^2 + 2a >= 2a > 0: the wall
    is a semicircle, and its crossing height at b is a, in [a_lo, a_hi]
    within [a_min, a_max].  disc(w) >= 0 and disc(u) >= 0 hold exactly at
    that a, by the two half-lines.

    2. The discriminant drop is automatic.  Let nu = (c - a*v0)/t_v, the
    tilt slope of v at (b, a).  E = 0 gives ch2^b(w) - a*w0 = nu*t, and
    ch2^b(u) - a*u0 = nu*s by subtraction from v, so every z among v, w, u
    has disc(z) = F(z0, ch1^b(z)) with

        F(x, y) = y^2 - 2*nu*x*y - 2*a*x^2.

    F has discriminant 4*(nu^2 + 2a) > 0, so F = L+ * L- with real linear
    forms L+- = y - (nu +- sqrt(nu^2 + 2a))*x, whose slopes have product
    -2a < 0.  A vector with F >= 0 and y > 0 has L+ >= 0 and L- >= 0: both
    <= 0 would give y <= 0 (use L- if x >= 0, L+ if x < 0).  (w0, t) is
    such a vector, since disc(w) >= 0 and T > 0.  So is (u0, s): S = 0
    would give disc(u) = -2a*u0^2 >= 0, so u0 = 0 and G = w0*S - u0*T = 0.
    (v0, t_v) is their sum, so disc(v) - disc(w) - disc(u) = 2*B with B the
    polar form of F, 2*B = L+(w0, t)*L-(u0, s) + L-(w0, t)*L+(u0, s), a sum
    of two terms >= 0.  Both vanish only if the two vectors lie on one line
    L+ = 0 or L- = 0 (neither vector is 0, and L+ and L- vanish together
    only at 0), that is, only if w0*S = u0*T, which is G = 0.  Hence
    disc(w) + disc(u) < disc(v).

    3. The heart at the top.  Suppose ch1^beta(w) = 0 at a point
    (beta, a1) of the open arc (a1 > 0) of the wall, where E vanishes.  If
    ch1^beta(v) != 0 there, E = 0 gives ch2^beta(w) = a1*w0, so
    disc(w) = -2*a1*w0^2; that is < 0 unless w0 = 0, and w0 = 0 would make
    ch1^beta(w) = w1 = T/q > 0 for every beta.  If ch1^beta(v) = 0 too,
    then w1 = beta*w0 and v1 = beta*v0, so d01 = 0.  Both contradict the
    above, so on the arc, which is connected and passes through (b, a),
    ch1^beta(w) keeps the sign of T > 0.  u has the same wall (its E is
    -E) and ch1^b(u) = S/q > 0 (part 2), so the same holds for u.  At the
    top: 0 < ch1^center(w) < ch1^center(v).

    4. Finiteness without a top.  The two slopes, over K > 0, are

        sigma_w/K = -w0*G = -(w0^2*S - w0*u0*T),
        sigma_u/K =  u0*G = -(u0^2*T - w0*u0*S).

    If w0*u0 > 0, sigma_w*sigma_u = -K^2*w0*u0*G^2 < 0: the slopes have
    opposite signs.  If w0*u0 <= 0, both are <= 0 (S >= 0, T > 0), and both
    are 0 only if w0^2*S = w0*u0 = u0 = 0, which gives w0*S = u0*T = 0,
    i.e. G = 0.  So one slope is negative, and its half-line caps a_hi at a
    rational.  Starting from a_hi = +inf, every (w0, w1) therefore gets a
    finite, rational window, and the search needs no top.

    The screen.  With w2 = k/den and m the minimal discriminant,
    den*disc(w) = den*w1^2 - 2*w0*k and
    d*den*disc(u) = d*den*(v1 - w1)^2 - 2*u0*(den*n - d*k) are integers, and
    a rational r with den*r (or d*den*r) an integer is 0 or a multiple of m
    exactly when that integer is divisible by den*m (or d*den*m).  So
    ``_screen_candidate`` decides the spectrum by two congruences.

    The pair filter.  w < v - w compares (w0, w1, w2) with
    (v0 - w0, v1 - w1, v2 - w2), that is (2*w0, 2*w1, 2*w2) with
    (v0, v1, v2); with w2 = k/den and v2 = n/d the last entries compare as
    2*d*k against den*n.  The first entries come first, so no w with
    2*w0 > v0 passes: the rank loop stops at v0 // 2.  It starts at the
    least multiple of v0_step in the window [max(0, v0) - B, min(0, v0) + B]
    of ``_w0_bound`` (B its value, so that B - |v0| is the d there), and
    v0 // 2 <= max(0, v0) <= min(0, v0) + B lies in that window.  Everything
    above is integer arithmetic until the kept class's w2 = k/den.
    """
    p, q = beta_star.numerator, beta_star.denominator
    n, d = v.v2.numerator, v.v2.denominator
    v0, v1 = v.v0, v.v1
    den, step, r = cfg.v2_denominator, cfg.v1_step, cfg.v0_step
    T_v = q * v1 - p * v0
    C = 2 * q * q * n - 2 * d * p * q * v1 + d * p * p * v0
    K = 2 * d * q * q
    M = d * den
    mod_w, mod_u = den * cfg.minimal_discriminant, M * cfg.minimal_discriminant
    bound = _w0_bound(v, beta_star, a_min)
    # w0 runs over multiples of v0_step from the window's lower end up to v0 // 2
    for w0 in range(-((bound - max(0, v0)) // r) * r, v0 // 2 + 1, r):
        u0 = v0 - w0
        pw0 = p * w0
        # w1 runs over multiples of v1_step with 0 < T = q*w1 - p*w0 <= T_v
        for w1 in range((pw0 // (q * step) + 1) * step, (pw0 + T_v) // q + 1, step):
            T = q * w1 - pw0
            G = w0 * T_v - T * v0
            if G == 0:
                continue
            S = T_v - T
            # a_lo and a_hi as (numerator, denominator > 0); a_hi None is +inf
            lo = (a_min.numerator, a_min.denominator)
            hi = None if a_max is None else (a_max.numerator, a_max.denominator)
            for alpha, sigma in (
                (T * (d * T * T_v - w0 * C), -K * w0 * G),
                (S * (d * S * T_v - u0 * C), K * u0 * G),
            ):
                if sigma > 0:
                    if -alpha * lo[1] > lo[0] * sigma:
                        lo = (-alpha, sigma)
                elif sigma < 0:
                    if hi is None or alpha * hi[1] < hi[0] * -sigma:
                        hi = (alpha, -sigma)
            if lo[0] * hi[1] > hi[0] * lo[1]:  # hi is finite by part 4
                continue
            H = T * C + d * T_v * p * (q * w1 + T)
            first, last = (lo, hi) if G > 0 else (hi, lo)
            k_lo = -(-den * (H * first[1] + K * G * first[0]) // (K * T_v * first[1]))
            k_hi = den * (H * last[1] + K * G * last[0]) // (K * T_v * last[1])
            disc_w1 = den * w1 * w1
            disc_u1 = M * (v1 - w1) ** 2 - 2 * u0 * den * n
            for k in range(k_lo, k_hi + 1):
                disc_w, disc_u = disc_w1 - 2 * w0 * k, disc_u1 + 2 * u0 * d * k
                if not _screen_candidate(disc_w, disc_u, mod_w, mod_u):
                    continue
                if (2 * w0, 2 * w1, 2 * d * k) < (v0, v1, den * n):
                    yield ChernClass(w0, w1, Fraction(k, den))


def _screen_candidate(disc_w: int, disc_u: int, mod_w: int, mod_u: int) -> bool:
    """True if disc(w) and disc(v - w) are both in the spectrum.

    The arguments are the scaled discriminants den*disc(w) and
    d*den*disc(v - w) and their moduli den*m and d*den*m (notation of
    ``_kept_candidates``, whose docstring has the proofs).  This is
    the one test the crossing-height window cannot make: every w that
    reaches it already has a semicircular wall crossing the segment,
    disc(w) >= 0 and disc(v - w) >= 0 with a sum below disc(v), and stays
    in the heart at the top.
    """
    return disc_w % mod_w == 0 and disc_u % mod_u == 0


def enumerate_candidates(
    v: ChernClass,
    beta_star,
    a_min,
    a_max=None,
    cfg: SurfaceConfig = None,
) -> list[WallCandidate]:
    """All candidate walls for v crossing {beta = beta*, a in [a_min, a_max]}.

    The candidates are the kept ones defined in ``_kept_candidates``.
    Without a_max the search covers the whole half-line a >= a_min; it is
    finite all the same (see ``_kept_candidates``).  v must lie on
    cfg's lattice (``SurfaceConfig.check_class``; LatticeError otherwise).

    Each wall comes once, with its witnesses: the smaller member, in the
    lexicographic order of the triples, of every pair {w, v - w} of kept
    candidates on it, in ascending order; the first of them is the primary
    witness.  The walls are sorted by crossing height descending
    (outermost first).

    Proof that the search returns exactly these witnesses.  Let w be kept
    and u = v - w.  u is kept too:

    - u is on the lattice: v is, so u0, u1 and den*u2 are multiples of
      v0_step, v1_step and 1 as those of w are.
    - 0 < ch1^beta*(u) <= ch1^beta*(v): ch1^beta*(u) = S/q, and S > 0 by
      part 2 of ``_kept_candidates`` while S = T_v - T < T_v.
    - Every other condition of a kept candidate is symmetric in w and u:
      ``wall_between(v, u)`` is the wall of w (the equal-slope locus of v
      and u is that of v and w), so is its height at beta*, the heart at
      the top holds strictly for both (part 3), the spectrum and the
      discriminant sum see the pair {disc(w), disc(u)}.

    And u != w: 2w = v would give u0 = w0 and S = T, so G = w0*S - u0*T =
    0, which no kept candidate has.  So the kept candidates fall into
    pairs {w, v - w} with one wall, and w < v - w keeps one member of each,
    the smaller.  That member has 2*w0 <= v0, as the comparison looks at
    2*w0 against v0 first, and its rank lies in the window of ``_w0_bound``
    as the rank of every kept candidate does; so the rank loop of
    ``_kept_candidates``, which runs over that window up to v0 // 2, visits
    it.  The loops visit (w0, w1, k) in ascending order and w2 = k/den, so
    the kept classes arrive in lexicographic order, and grouping them by
    wall in that order lists each wall's witnesses ascending.  Off the
    lattice u may never be visited (v2 = -26/3 on ppas gives u2 of
    denominator 6), so the pair filter would lose walls: hence the lattice
    check.
    """
    if cfg is None:
        cfg = SurfaceConfig.preset("ppas")
    cfg.check_class(v)
    beta_star = Fraction(beta_star)
    a_min = Fraction(a_min)
    if a_min <= 0:
        raise ValueError("a_min must be positive (walls accumulate at a = 0)")
    a_max = None if a_max is None else Fraction(a_max)
    if a_max is not None and a_max < a_min:
        raise ValueError("a_max < a_min")
    if discriminant(v) < 0:
        raise ValueError("class has negative discriminant")
    if v.v0 > 0 and beta_star >= mu_slope(v):
        raise ValueError("wrong side of vertical wall")
    if v.v1 - beta_star * v.v0 <= 0:
        raise ValueError("class is not in the heart at beta_star (nonpositive twisted degree)")

    groups: dict[Semicircle, list[ChernClass]] = {}
    for w in _kept_candidates(v, beta_star, a_min, a_max, cfg):
        groups.setdefault(wall_between(v, w), []).append(w)
    result = [
        WallCandidate(wall, wall_a_at(wall, beta_star), tuple(ws)) for wall, ws in groups.items()
    ]
    result.sort(key=lambda c: (-c.cross_a, c.wall.center))
    return result
