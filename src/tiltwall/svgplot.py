"""Deterministic SVG rendering of wall diagrams and assembled functions.

Exact data comes in, floats appear only at the final formatting step, and
output is byte-stable for fixed inputs.  Curves are sampled on the integer
grid k/den of `rational_grid`: a function by `PiecewiseQuadratic.sample`,
which finds each point's piece from the integer thresholds floor(b*den) of
the breakpoints b, the walls plot's hyperbola from one integer form.  Each
exact value is an integer quotient N/M, and its float is `N / M`, which is
correctly rounded, as `float(Fraction)` is; no `Fraction` is built per
point.  A value beyond float range raises OverflowError.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import QuadPoly
from .hntree import PiecewiseQuadratic
from .lattice import ChernClass, mu_slope
from .walls import Semicircle, WallCandidate

_W, _H, _PAD = 800.0, 400.0, 40.0


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def function_range(fn: PiecewiseQuadratic) -> tuple[float, float]:
    """Plotted and sampled x range of a function: one unit past its outer
    breakpoints, or [-1, 1] when it has none.

    Floats hold every integer up to 2**53 in magnitude and no unit step
    beyond it, so a breakpoint of magnitude 2**53 or more, which may not
    even convert to a float, raises ValueError rather than give an empty or
    overflowing range.
    """
    if not fn.breakpoints:
        return -1.0, 1.0
    first, last = fn.breakpoints[0], fn.breakpoints[-1]
    if first <= -(2**53) or last >= 2**53:
        raise ValueError(
            "a breakpoint of magnitude 2**53 or more cannot be plotted or sampled "
            "in floats; use --format table or json"
        )
    return float(first) - 1.0, float(last) + 1.0


def rational_grid(lo: float, hi: float, steps: int, den: int) -> list[int]:
    """The numerators k of steps + 1 grid points k/den, each the rounding of one
    of the evenly spaced floats from lo to hi, times den."""
    return [round((lo + (hi - lo) * i / steps) * den) for i in range(steps + 1)]


class _Frame:
    def __init__(self, x_lo, x_hi, y_hi):
        self.x_lo, self.x_hi, self.y_hi = x_lo, x_hi, y_hi
        self.sx = (_W - 2 * _PAD) / (x_hi - x_lo)
        self.sy = (_H - 2 * _PAD) / y_hi if y_hi > 0 else 1.0

    def px(self, x: float) -> float:
        return _PAD + (x - self.x_lo) * self.sx

    def py(self, y: float) -> float:
        return _H - _PAD - y * self.sy


def _preamble(fr: _Frame) -> list[str]:
    """The svg element and the beta (or x) axis across the frame."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<line x1="{_fmt(fr.px(fr.x_lo))}" y1="{_fmt(fr.py(0))}" '
        f'x2="{_fmt(fr.px(fr.x_hi))}" y2="{_fmt(fr.py(0))}" stroke="black"/>',
    ]


def _vline(fr: _Frame, cls: str, x: float, stroke: str, dash: str) -> str:
    """A dashed vertical line at x, from the axis to the top of the frame."""
    return (
        f'<line class="{cls}" x1="{_fmt(fr.px(x))}" y1="{_fmt(fr.py(0))}" '
        f'x2="{_fmt(fr.px(x))}" y2="{_fmt(fr.py(fr.y_hi))}" '
        f'stroke="{stroke}" stroke-dasharray="{dash}"/>'
    )


def render_walls_svg(
    v: ChernClass, candidates: list[WallCandidate], beta_star=None
) -> str:
    """Wall diagram in the (beta, alpha) half-plane for the class v."""
    walls = [c.wall for c in candidates]
    radii = [math.sqrt(float(w.radius_sq)) for w in walls]
    xs = [float(w.center) - r for w, r in zip(walls, radii)]
    xs += [float(w.center) + r for w, r in zip(walls, radii)]
    if v.v0 != 0:
        xs.append(float(mu_slope(v)))
    if beta_star is not None:
        xs.append(float(beta_star))
    if not xs:
        xs = [-1.0, 1.0]
    fr = _Frame(min(xs) - 0.5, max(xs) + 0.5, max(radii + [1.0]) + 0.5)

    parts = _preamble(fr)
    if v.v0 != 0:
        parts.append(_vline(fr, "vertical-wall", float(mu_slope(v)), "gray", "6 3"))
    parts.append(_hyperbola_polyline(v, fr))
    for w, r in zip(walls, radii):
        c = float(w.center)
        parts.append(
            f'<path class="wall-arc" d="M {_fmt(fr.px(c - r))} {_fmt(fr.py(0))} '
            f'A {_fmt(r * fr.sx)} {_fmt(r * fr.sy)} 0 0 1 '
            f'{_fmt(fr.px(c + r))} {_fmt(fr.py(0))}" fill="none" stroke="red"/>'
        )
        parts.append(
            f'<text x="{_fmt(fr.px(c))}" y="{_fmt(fr.py(r) - 4)}" font-size="11" '
            f'text-anchor="middle">({w.center},{w.radius_sq})</text>'
        )
    if beta_star is not None:
        parts.append(_vline(fr, "query-line", float(beta_star), "blue", "2 3"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _hyperbola_polyline(v: ChernClass, fr: _Frame) -> str:
    """Locus of tilt slope zero, sampled at rational beta with exact heights."""
    if v.v0 == 0:
        if v.v1 == 0:
            return "<!-- no hyperbola -->"
        return _vline(fr, "hyperbola", float(Fraction(v.v2, v.v1)), "green", "4 3")
    # the zero-slope locus is a = twist(v, beta).t2 / v0, one rational quadratic,
    # evaluated at beta = k/1024 as the integer quotient a = n/m (`grid_value`);
    # int / int is correctly rounded, so it is the float of the exact a
    height = QuadPoly(v.v2 / v.v0, -Fraction(v.v1, v.v0), Fraction(1, 2))
    den = 1024
    pts = []
    for k in rational_grid(fr.x_lo, fr.x_hi, 200, den):
        n, m = height.grid_value(k, den)
        if n < 0:
            continue
        alpha = math.sqrt(2 * (n / m))
        if alpha > fr.y_hi:
            continue
        pts.append(f"{_fmt(fr.px(k / den))},{_fmt(fr.py(alpha))}")
    if not pts:
        return "<!-- hyperbola outside viewport -->"
    return (
        f'<polyline class="hyperbola" points="{" ".join(pts)}" '
        f'fill="none" stroke="green" stroke-dasharray="4 3"/>'
    )


def render_function_svg(fn: PiecewiseQuadratic) -> str:
    """Graph of a piecewise quadratic with breakpoint markers."""
    x_lo, x_hi = function_range(fn)
    den = 1024
    ks = rational_grid(x_lo, x_hi, 400, den)
    values = [(k / den, n / m) for k, (n, m) in zip(ks, fn.sample(ks, den))]
    y_hi = max(y for _, y in values) or 1.0
    fr = _Frame(x_lo, x_hi, y_hi)
    pts = " ".join(f"{_fmt(fr.px(x))},{_fmt(fr.py(y))}" for x, y in values)
    parts = _preamble(fr)
    parts.append(f'<polyline class="function" points="{pts}" fill="none" stroke="blue"/>')
    for b in fn.breakpoints:
        bx = float(b)
        parts.append(
            f'<circle class="breakpoint" cx="{_fmt(fr.px(bx))}" '
            f'cy="{_fmt(fr.py(float(fn.eval_at(b))))}" r="3" fill="red"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
