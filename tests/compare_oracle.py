"""Case-analysis signs and dyadic enclosures: the oracle for `QuadraticIrrational`'s order.

This is the order as it was before the closed-form integer rule: the sign of
a + b*sqrt(d) by four cases on the signs of a and b, a comparison within one
field (or against a rational) by the sign of the difference, and a comparison
across fields by refining dyadic enclosures, doubling the bits until they are
disjoint.  It reads only the public fields a, b, d of its operands and is
spelled out here rather than imported, so a change to the library's rule
cannot silently change the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction


def case_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d), in {-1, 0, 1}."""
    if d == 0 or b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    # a and b*sqrt(d) nonzero: compare a**2 vs b**2*d with case analysis
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    bigger_rational = lhs > rhs
    if a > 0:  # b < 0
        return 1 if bigger_rational else -1
    return -1 if bigger_rational else 1


def _enclosure(x, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure [lo, hi] of the value, width shrinking with bits."""
    scale = 1 << bits
    r = math.isqrt(x.d * scale * scale)
    lo_s, hi_s = Fraction(r, scale), Fraction(r + 1, scale)
    if x.b > 0:
        return x.a + x.b * lo_s, x.a + x.b * hi_s
    return x.a + x.b * hi_s, x.a + x.b * lo_s


def enclosure_compare(x, y) -> int:
    """Exact three-way comparison of two canonical values, across fields too."""
    if (x.a, x.b, x.d) == (y.a, y.b, y.d):
        return 0
    if x.d == 0 or y.d == 0 or x.d == y.d:
        return case_sign(x.a - y.a, x.b - y.b, x.d or y.d)
    # Cross-field: canonical forms differ, so the values differ; refine
    # dyadic enclosures until they are disjoint.
    bits = 16
    while True:
        lo1, hi1 = _enclosure(x, bits)
        lo2, hi2 = _enclosure(y, bits)
        if hi1 < lo2:
            return -1
        if hi2 < lo1:
            return 1
        bits *= 2
