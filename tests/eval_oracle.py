"""Horner form and ring operations: the oracles for evaluating a `QuadPoly`.

These are the evaluations as they were before the closed forms: at a
rational, c0 + x*(c1 + c2*x) in `Fraction` arithmetic; at a quadratic
irrational, x*x*c2 + x*c1 + c0 in the ring operations of the Fraction-pair
class of `qi_oracle`, not of the integer class whose closed form they check.
They read only the public coefficients c0, c1, c2 and the public a, b, d of
x, and are spelled out here rather than imported, so a change to the
library's formulas cannot silently change the oracle.
"""

from __future__ import annotations

from fractions import Fraction

from qi_oracle import QuadraticIrrational as OracleQI, from_parts


def horner_eval_rational(p, x) -> Fraction:
    """Exact value p(x) at a rational x, by Horner's rule in Fractions."""
    x = Fraction(x)
    return p.c0 + x * (p.c1 + p.c2 * x)


def ring_quad_eval(p, x) -> OracleQI:
    """Exact value p(x) at a rational or quadratic irrational x, by the
    oracle class's ring operations."""
    x = OracleQI(x) if isinstance(x, (int, Fraction)) else from_parts(x.a, x.b, x.d)
    return x * x * p.c2 + x * p.c1 + OracleQI(p.c0)
