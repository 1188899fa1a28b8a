"""Brute-force wall enumerator: the oracle for the pruned rank window.

This is the enumerator as it was before the two-sided window: the rank w0
runs over the loose window |w0| <= t_v*(M + sqrt(M^2 + 2*a_max))/(2*a_min)
obtained from disc(w) >= 0 alone, whose size grows like 1/a_min.  The w1/w2
loops and the screening are spelled out here rather than imported, so a
change to the library's search cannot silently change the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from tiltwall.lattice import ChernClass, SurfaceConfig, class_sub, discriminant, twist
from tiltwall.walls import Semicircle, WallCandidate, default_a_max, wall_a_at, wall_between


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
    wall = wall_between(v, w)
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


def brute_force_candidates(v, beta_star, a_min, a_max=None, cfg=None, strict=False):
    """Same contract and output as ``walls.enumerate_candidates``."""
    cfg = cfg or SurfaceConfig.preset("ppas")
    beta_star, a_min = Fraction(beta_star), Fraction(a_min)
    a_max = Fraction(default_a_max(v, a_min) if a_max is None else a_max)
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
        result.append(WallCandidate(wall, ordered[0], cross_a, witnesses=ordered))
    result.sort(key=lambda c: (-c.cross_a, c.wall.center))
    return result
