"""Brute-force wall enumerator: the oracle for the pruned rank window.

This is the enumerator as it was before the two-sided window: the rank w0
runs over the loose window |w0| <= t_v*(M + sqrt(M^2 + 2*a_max))/(2*a_min)
obtained from disc(w) >= 0 alone, whose size grows like 1/a_min.  The w1/w2
loops and the screening are spelled out here rather than imported, so a
change to the library's search cannot silently change the oracle.  The
oracle always searches a bounded segment; ``wall_height_bound`` gives a top
that covers every wall, for comparison with the library's unbounded search.

``fraction_candidate_pairs_for_w0`` is the library's search for one rank
as it was in Fraction arithmetic: the oracle for its integer form.
``fraction_wall_between`` and ``twist_crosses_exactly_along`` are
``walls.wall_between`` and ``catalog._crosses_exactly_along`` as they were
in Fraction arithmetic: the oracles for their integer forms.  The screens
here take walls from ``fraction_wall_between``, so no oracle in this file
reads the library's wall formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from tiltwall.lattice import ChernClass, SurfaceConfig, discriminant, twist
from tiltwall.walls import Semicircle, VerticalWall, WallCandidate, wall_a_at


def fraction_wall_between(v: ChernClass, w: ChernClass):
    """``walls.wall_between`` in Fraction arithmetic: the semicircle of
    center d02/d01 and radius_sq (d02/d01)^2 - 2*d12/d01 if d01 != 0 and
    that is positive, the vertical line beta = d12/d02 if d01 = 0 and
    d02 != 0, and None otherwise."""
    d01 = Fraction(v.v0 * w.v1 - v.v1 * w.v0)
    d02 = v.v0 * w.v2 - v.v2 * w.v0
    d12 = v.v1 * w.v2 - v.v2 * w.v1
    if d01 != 0:
        s = d02 / d01
        radius_sq = s * s - 2 * d12 / d01
        if radius_sq <= 0:
            return None
        return Semicircle(s, radius_sq)
    if d02 != 0:
        return VerticalWall(d12 / d02)
    return None


def twist_crosses_exactly_along(v: ChernClass, w: ChernClass, wall: Semicircle) -> bool:
    """``catalog._crosses_exactly_along`` in Fraction arithmetic: E = (D/2)*G
    at beta in {0, 1, 2, 3} and a in {0, 1}, with E from ``twist``."""
    d = w.v0 * v.v1 - v.v0 * w.v1
    if d == 0:
        return False
    for beta in range(4):
        tv, tw = twist(v, beta), twist(w, beta)
        for a in range(2):
            e = (tv.t2 - a * tv.t0) * tw.t1 - (tw.t2 - a * tw.t0) * tv.t1
            g = (beta - wall.center) ** 2 + 2 * a - wall.radius_sq
            if e != Fraction(d, 2) * g:
                return False
    return True


def class_sub(v: ChernClass, w: ChernClass) -> ChernClass:
    """v - w; the library pairs w with v - w without building it."""
    return ChernClass(v.v0 - w.v0, v.v1 - w.v1, v.v2 - w.v2)


def _sqrt_ceil(q: Fraction) -> int:
    n = math.isqrt(q.numerator // q.denominator)
    while n * n < q:
        n += 1
    return n


def loose_w0_bound(v: ChernClass, beta_star, a_min, a_max) -> int:
    """|w0| bound from disc(w) >= 0 alone, with |nu| <= M and a >= a_min."""
    tv = twist(v, beta_star)
    t_v, c = tv.t1, tv.t2
    m = max(abs((c - a_min * v.v0) / t_v), abs((c - a_max * v.v0) / t_v))
    return math.ceil(t_v * (m + _sqrt_ceil(m * m + 2 * a_max)) / (2 * a_min))


def _spectrum_ok(disc: Fraction, m: int) -> bool:
    return disc >= 0 and (disc == 0 or (disc / m).denominator == 1)


def _screen(v, w, beta_star, a_min, a_max, cfg, strict):
    disc_w, disc_q = discriminant(w), discriminant(class_sub(v, w))
    if not (_spectrum_ok(disc_w, cfg.minimal_discriminant)
            and _spectrum_ok(disc_q, cfg.minimal_discriminant)):
        return None
    total, disc_v = disc_w + disc_q, discriminant(v)
    if (total >= disc_v) if strict else (total > disc_v):
        return None
    wall = fraction_wall_between(v, w)
    if not isinstance(wall, Semicircle):
        return None
    if not (0 < w.v1 - wall.center * w.v0 <= v.v1 - wall.center * v.v0):
        return None
    cross_a = wall_a_at(wall, beta_star)
    if cross_a is None or not (a_min <= cross_a <= a_max):
        return None
    return wall, cross_a


def _w2_range(v, w0, w1, den):
    """Numerators k (over den) of the w2 values allowed by the discriminants."""
    disc_v = discriminant(v)
    if w0 != 0:
        b1 = Fraction(w1 * w1, 2 * w0)
        b2 = (w1 * w1 - disc_v) / (2 * w0)
        lo, hi = (b2, b1) if w0 > 0 else (b1, b2)
    elif v.v0 != 0:
        u1 = v.v1 - w1
        c1 = (u1 * u1 - 2 * v.v0 * v.v2) / (-2 * v.v0)
        c2 = (u1 * u1 - disc_v - 2 * v.v0 * v.v2) / (-2 * v.v0)
        lo, hi = min(c1, c2), max(c1, c2)
    else:
        return range(0)
    return range(math.ceil(lo * den), math.floor(hi * den) + 1)


def wall_height_bound(v: ChernClass, cfg: SurfaceConfig) -> Fraction:
    """A height that the wall of no kept candidate for v rises above.

    Proof.  Let a kept w have the wall (c, radius_sq), top height
    h = radius_sq/2 >= cross_a and x = sqrt(2h) > 0.  Put T = ch1^c(v),
    t = ch1^c(w), q = v - w, s = T - t; the screen keeps w only if
    0 < t <= T.  At the top both tilt slopes are 0, so ch2^c(v) = h*v0 and
    ch2^c(w) = h*w0, and by twist invariance

        disc(v) = T^2 - v0^2*x^2,  disc(w) = t^2 - w0^2*x^2,
        disc(q) = s^2 - q0^2*x^2.

    The screen keeps disc(w) >= 0 and disc(q) >= 0, so t = |w0|*x + e1 and
    s = |q0|*x + e2 with e1, e2 >= 0.  With e = e1 + e2 and
    K = |w0| + |q0| >= |v0|, T = K*x + e, and T^2 = disc(v) + v0^2*x^2 reads

        (K^2 - v0^2)*x^2 + 2*K*x*e + e^2 = disc(v),

    a sum of nonnegative terms.  If K > |v0| (this includes v0 = 0, where
    w0 != 0 as the wall is a semicircle), w0 lies at least v0_step outside
    the interval between 0 and v0, so K - |v0| >= 2*v0_step and
    K^2 - v0^2 >= 4*v0_step^2: x^2 <= disc(v)/(4*v0_step^2).  If K = |v0| > 0,
    w0 and q0 are 0 or of the sign of v0, and D = w0*v1 - v0*w1 =
    w0*T - v0*t = w0*e2 - q0*e1, so |D| <= |v0|*e <= disc(v)/(2x) by the
    identity.  D is nonzero, as the wall is a semicircle, and a multiple of
    v0_step*v1_step, so x^2 <= disc(v)^2/(4*(v0_step*v1_step)^2).  In both
    cases cross_a <= h = x^2/2 is at most the value returned.
    """
    disc = discriminant(v)
    return max(disc / (8 * cfg.v0_step**2), disc * disc / (8 * (cfg.v0_step * cfg.v1_step) ** 2))


def brute_force_candidates(v, beta_star, a_min, a_max, cfg=None, strict=False):
    """Same contract and output as ``walls.enumerate_candidates`` with a top."""
    cfg = cfg or SurfaceConfig.preset("ppas")
    beta_star, a_min, a_max = Fraction(beta_star), Fraction(a_min), Fraction(a_max)
    t_v = v.v1 - beta_star * v.v0
    bound = loose_w0_bound(v, beta_star, a_min, a_max)
    groups: dict = {}
    for w0 in range(-bound, bound + 1):
        if w0 % cfg.v0_step:
            continue
        lo = beta_star * w0
        w1 = math.floor(lo / cfg.v1_step) * cfg.v1_step
        while w1 <= lo + t_v:
            if w1 > lo:
                for k in _w2_range(v, w0, w1, cfg.v2_denominator):
                    w = ChernClass(w0, w1, Fraction(k, cfg.v2_denominator))
                    hit = _screen(v, w, beta_star, a_min, a_max, cfg, strict)
                    if hit is not None:
                        wall, cross_a = hit
                        u = class_sub(v, w)
                        witness = min(w, u, key=lambda c: (c.v0, c.v1, c.v2))
                        groups.setdefault(wall, (cross_a, set()))[1].add(witness)
            w1 += cfg.v1_step
    result = []
    for wall, (cross_a, witnesses) in groups.items():
        ordered = tuple(sorted(witnesses, key=lambda c: (c.v0, c.v1, c.v2)))
        result.append(WallCandidate(wall, cross_a, ordered))
    result.sort(key=lambda c: (-c.cross_a, c.wall.center))
    return result


def fraction_candidate_pairs_for_w0(
    v: ChernClass,
    beta_star: Fraction,
    a_min: Fraction,
    a_max: Union[Fraction, float],
    cfg: SurfaceConfig,
    w0: int,
) -> list[tuple[Semicircle, ChernClass, Fraction]]:
    """The rank-w0 part of ``walls._kept_candidates`` in Fraction arithmetic.

    Same contract for that rank, but every survivor is returned, not only
    those with w < v - w, and a_max = math.inf for a query without a top.  The
    window is the same one (its proofs are in the library's docstring),
    computed here from Fraction values of t, g, the two half-line
    thresholds and the w2 bounds, and every point of it goes through
    ``discriminant`` and ``fraction_wall_between`` as before.
    """
    out = []
    tv = twist(v, beta_star)
    t_v, c = tv.t1, tv.t2
    slope_v = c / t_v
    den = cfg.v2_denominator
    q0 = v.v0 - w0
    # w1 runs over multiples of v1_step with 0 < t = w1 - beta*w0 <= t_v
    step = cfg.v1_step
    lo = beta_star * w0
    first = (math.floor(lo / step) + 1) * step
    for w1 in range(first, math.floor(lo + t_v) + 1, step):
        t = w1 - lo
        g = w0 - t * v.v0 / t_v
        if g == 0:
            continue
        s = t_v - t
        a_lo, a_hi = a_min, a_max
        for alpha, sigma in (
            (t * (t - 2 * w0 * slope_v), -2 * w0 * g),
            (s * (s - 2 * q0 * slope_v), 2 * q0 * g),
        ):
            if sigma > 0:
                a_lo = max(a_lo, -alpha / sigma)
            elif sigma < 0:
                a_hi = min(a_hi, -alpha / sigma)
            elif alpha < 0:
                a_hi = a_lo - 1  # this half-line is empty
        if a_lo > a_hi:
            continue
        shift = t * slope_v + beta_star * (w1 - lo / 2)
        e1, e2 = sorted((shift + a_lo * g, shift + a_hi * g))
        for k in range(math.ceil(e1 * den), math.floor(e2 * den) + 1):
            w = ChernClass(w0, w1, Fraction(k, den))
            cand = _fraction_screen(v, w, beta_star, cfg)
            if cand is not None:
                out.append(cand)
    return out


def _in_discriminant_spectrum(disc: Fraction, m: int) -> bool:
    """Positive discriminants of semistable classes are multiples of m."""
    return disc == 0 or (disc / m).denominator == 1


def _fraction_screen(v, w, beta_star, cfg):
    """(wall, w, cross_a) if disc(w) and disc(v - w) are in the spectrum."""
    m = cfg.minimal_discriminant
    if not (_in_discriminant_spectrum(discriminant(w), m)
            and _in_discriminant_spectrum(discriminant(class_sub(v, w)), m)):
        return None
    wall = fraction_wall_between(v, w)
    return wall, w, wall_a_at(wall, beta_star)
