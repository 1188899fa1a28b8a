"""Built-in scenarios: ideal sheaves of finite subschemes and related classes.

Each scenario bundles a surface configuration, a class, its destabilization
tree (or a trivial marker), and the expected Chern degree function; they are
the regression fixtures of the package and double as CLI demos.  The module
also owns the regression matrix over them, `regression_checks`, which both
`tiltwall check` and the test suite run.

Torsion quotient classes were computed from the Euler characteristic of a
line bundle of degree d on the genus-2 theta divisor: v = (0, 2, d - 1) on a
principally polarized abelian surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactnum import QuadPoly, QuadraticIrrational
from .hntree import HNTree, PiecewiseQuadratic, TreeLeaf, TreeNode, validate_tree
from .lattice import ChernClass, SurfaceConfig, discriminant, line_bundle_class, mu_slope, twist
from .walls import Semicircle, enumerate_candidates, wall_a_at

QI = QuadraticIrrational
F = Fraction


@dataclass
class Scenario:
    """One catalog entry.  cls is the class the scenario is about; it defaults
    to the root class of tree, so only a walls-only scenario (tree None)
    states it.  It is set once, when the scenario is built."""

    id: str
    config: SurfaceConfig
    tree: Optional[HNTree]  # None = walls-only scenario
    cls: Optional[ChernClass] = None
    expected_chd0: Optional[PiecewiseQuadratic] = None
    expected_jumps: dict = field(default_factory=dict)  # breakpoint -> jump (QI)
    expected_walls: list = field(default_factory=list)  # walls crossing beta = -2
    notes: str = ""

    def __post_init__(self):
        if self.cls is None:
            self.cls = self.tree.cls

    @property
    def trivial(self) -> bool:
        return isinstance(self.tree, TreeLeaf)


def _pw(breakpoints, pieces) -> PiecewiseQuadratic:
    return PiecewiseQuadratic(
        [b if isinstance(b, QI) else QI(F(b)) for b in breakpoints],
        [QuadPoly(*coeffs) for coeffs in pieces],
    )


PPAS = SurfaceConfig.preset("ppas")
AB12 = SurfaceConfig.preset("abelian-(1,2)")


def _build() -> dict[str, Scenario]:
    scenarios: list[Scenario] = []

    # ideal sheaf of one point: trivial function
    scenarios.append(
        Scenario(
            id="ppas-ideal-1",
            config=PPAS,
            tree=TreeLeaf(ChernClass(2, 0, -1), "ideal of a point"),
            expected_chd0=_pw([1], [(0, 0, 0), (-1, 0, 1)]),
            notes="ideal sheaf of a single point; no wall below the Gieseker chamber",
        )
    )

    # two points: one wall, both factors of discriminant 0
    scenarios.append(
        Scenario(
            id="ppas-ideal-2",
            config=PPAS,
            tree=TreeNode(
                ChernClass(2, 0, -2),
                Semicircle(F(-3, 2), F(1, 4)),
                [
                    TreeLeaf(ChernClass(4, -4, 2), "rank-2 semihomogeneous bundle"),
                    TreeLeaf(ChernClass(-2, 4, -4), "shifted quotient"),
                ],
            ),
            expected_chd0=_pw([1, 2], [(0, 0, 0), (2, -4, 2), (-2, 0, 1)]),
            expected_jumps={QI(1): QI(0), QI(2): QI(0)},
            notes="ideal sheaf of two points; single wall with discriminant-0 factors",
        )
    )

    # three collinear points
    scenarios.append(
        Scenario(
            id="ppas-ideal-3-collinear",
            config=PPAS,
            tree=TreeNode(
                ChernClass(2, 0, -3),
                Semicircle(F(-2), F(1)),
                [
                    TreeLeaf(ChernClass(2, -2, 1), "inverse polarization"),
                    TreeLeaf(ChernClass(0, 2, -4), "degree-(-3) torsion quotient"),
                ],
            ),
            expected_chd0=_pw([1, 2], [(0, 0, 0), (1, -2, 1), (-3, 0, 1)]),
            expected_jumps={QI(1): QI(0), QI(2): QI(2)},
            notes="three points on a theta translate; torsion quotient has disc 4",
        )
    )

    # three generic points
    scenarios.append(
        Scenario(
            id="ppas-ideal-3-generic",
            config=PPAS,
            tree=TreeNode(
                ChernClass(2, 0, -3),
                Semicircle(F(-7, 4), F(1, 16)),
                [
                    TreeLeaf(ChernClass(8, -12, 9), "rank-4 destabilizer"),
                    TreeLeaf(ChernClass(-6, 12, -12), "shifted quotient"),
                ],
            ),
            expected_chd0=_pw(
                [F(3, 2), 2], [(0, 0, 0), (9, -12, 4), (-3, 0, 1)]
            ),
            expected_jumps={QI(F(3, 2)): QI(0), QI(2): QI(0)},
            notes="three points in general position; both factors have disc 0",
        )
    )

    # four collinear points: two nested walls
    n4_quotient = TreeNode(
        ChernClass(0, 2, -5),
        Semicircle(F(-5, 2), F(1, 4)),
        [
            TreeLeaf(ChernClass(2, -4, 4), "square of inverse polarization"),
            TreeLeaf(ChernClass(-2, 6, -9), "shifted cube"),
        ],
    )
    scenarios.append(
        Scenario(
            id="ppas-ideal-4-collinear",
            config=PPAS,
            tree=TreeNode(
                ChernClass(2, 0, -4),
                Semicircle(F(-5, 2), F(9, 4)),
                [
                    TreeLeaf(ChernClass(2, -2, 1), "inverse polarization"),
                    n4_quotient,
                ],
            ),
            expected_chd0=_pw(
                [1, 2, 3],
                [(0, 0, 0), (1, -2, 1), (5, -6, 2), (-4, 0, 1)],
            ),
            expected_jumps={QI(1): QI(0), QI(2): QI(0), QI(3): QI(0)},
            expected_walls=[Semicircle(F(-5, 2), F(9, 4))],
            notes="four points on a theta translate; the torsion quotient splits again",
        )
    )

    scenarios.append(
        Scenario(
            id="ppas-ideal-4-generic",
            config=PPAS,
            tree=TreeLeaf(ChernClass(2, 0, -4), "ideal of four generic points"),
            expected_chd0=_pw([2], [(0, 0, 0), (-4, 0, 1)]),
            notes="four points not on a theta translate; semistable left of the vertical wall",
        )
    )

    # five points with a collinear length-4 subscheme: overlap of intercepts
    scenarios.append(
        Scenario(
            id="ppas-ideal-5-W2",
            config=PPAS,
            tree=TreeNode(
                ChernClass(2, 0, -5),
                Semicircle(F(-5, 2), F(5, 4)),
                [
                    TreeLeaf(ChernClass(2, -2, 0), "twisted ideal of a point"),
                    TreeNode(
                        ChernClass(0, 2, -5),
                        Semicircle(F(-5, 2), F(1, 4)),
                        [
                            TreeLeaf(ChernClass(2, -4, 4), "square of inverse polarization"),
                            TreeLeaf(ChernClass(-2, 6, -9), "shifted cube"),
                        ],
                    ),
                ],
            ),
            expected_chd0=_pw([2, 3], [(0, 0, 0), (4, -6, 2), (-5, 0, 1)]),
            expected_jumps={QI(2): QI(2), QI(3): QI(0)},
            expected_walls=[Semicircle(F(-5, 2), F(5, 4))],
            notes="five points containing four collinear ones; two intercepts coincide at 2",
        )
    )

    scenarios.append(
        Scenario(
            id="ppas-ideal-5-generic",
            config=PPAS,
            tree=TreeNode(
                ChernClass(2, 0, -5),
                Semicircle(F(-9, 4), F(1, 16)),
                [
                    TreeLeaf(ChernClass(10, -20, 20), "rank-5 destabilizer"),
                    TreeLeaf(ChernClass(-8, 20, -25), "shifted quotient"),
                ],
            ),
            expected_chd0=_pw([2, F(5, 2)], [(0, 0, 0), (20, -20, 5), (-5, 0, 1)]),
            expected_jumps={QI(2): QI(0), QI(F(5, 2)): QI(0)},
            notes="five generic points; destabilized by five degree-2 theta translates",
        )
    )

    # walls-only scenarios: geometry stated without a full tree
    scenarios.append(
        Scenario(
            id="ppas-ideal-5-W1-walls",
            config=PPAS,
            cls=ChernClass(2, 0, -5),
            tree=None,
            expected_walls=[Semicircle(F(-3), F(4))],
            notes="five collinear points: outermost wall only, no assembled function",
        )
    )
    scenarios.append(
        Scenario(
            id="ppas-ideal-5-W3-walls",
            config=PPAS,
            cls=ChernClass(2, 0, -5),
            tree=None,
            expected_walls=[Semicircle(F(-7, 3), F(4, 9))],
            notes="five points with a unique collinear triple: innermost wall, "
            "witnessed by the rank-2 bundle class (4,-6,4)",
        )
    )

    # ideal of a base point on a (1,2)-polarized abelian surface
    scenarios.append(
        Scenario(
            id="abelian12-ideal-point",
            config=AB12,
            tree=TreeNode(
                ChernClass(4, 0, -1),
                Semicircle(F(-3, 4), F(1, 16)),
                [
                    TreeLeaf(ChernClass(8, -4, 1), "extension by the inverse polarization"),
                    TreeLeaf(ChernClass(-4, 4, -2), "shifted quotient"),
                ],
            ),
            expected_chd0=_pw([F(1, 2), 1], [(0, 0, 0), (1, -4, 4), (-1, 0, 2)]),
            expected_jumps={QI(F(1, 2)): QI(0), QI(1): QI(0)},
            notes="ideal of a point on a (1,2)-polarized abelian surface",
        )
    )

    scenarios.append(
        Scenario(
            id="ppas-structure-sheaf",
            config=PPAS,
            tree=TreeLeaf(ChernClass(2, 0, 0), "structure sheaf"),
            expected_chd0=_pw([0], [(0, 0, 0), (0, 0, 1)]),
            notes="structure sheaf; semistable everywhere left of the vertical wall",
        )
    )

    scenarios.append(
        Scenario(
            id="ppas-abel-jacobi",
            config=PPAS,
            tree=TreeLeaf(ChernClass(0, 2, 0), "odd-degree line bundle on the theta curve"),
            expected_chd0=_pw([0], [(0, 0, 0), (0, 2, 0)]),
            notes="pushforward of a degree-1 line bundle from the genus-2 curve",
        )
    )

    return {s.id: s for s in scenarios}


_SCENARIOS = _build()


def list_scenarios() -> list[str]:
    return sorted(_SCENARIOS)


def load_scenario(scenario_id: str) -> Scenario:
    try:
        return _SCENARIOS[scenario_id]
    except KeyError:
        raise KeyError(f"unknown scenario: {scenario_id!r}") from None


def _crosses_exactly_along(v: ChernClass, w: ChernClass, wall: Semicircle) -> bool:
    """Whether the tilt slopes of v and w agree on wall and nowhere else.

    With E(beta, a) = (ch2^beta(v) - a*v0)*ch1^beta(w) - (ch2^beta(w) -
    a*w0)*ch1^beta(v) = (nu(v) - nu(w))*ch1^beta(v)*ch1^beta(w),
    D = w0*v1 - v0*w1 and G = (beta - center)^2 + 2a - radius_sq, the slopes
    cross exactly along the wall iff D != 0 and E = (D/2)*G as polynomials;
    D = 0 with E = 0 would mean proportional classes, equal everywhere.
    E - (D/2)*G has degree at most 3 in beta and at most 1 in a, so it is
    zero iff it vanishes at four values of beta for each of two values of a.
    (Its beta^3, beta^2 and a terms cancel identically, so fewer would do.)
    E comes from ``twist``, independently of the formula in
    ``walls.wall_between``.
    """
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


def _scenario_checks(s: Scenario) -> list[tuple[str, bool]]:
    results = []
    if s.tree is not None:
        report = validate_tree(s.tree)
        valid = report.passed  # every row that needs the function fails without it
        fn = report.chd0() if valid else None
        if not s.trivial:
            results.append((f"{s.id}: tree valid", valid))
        if s.expected_chd0 is not None:
            results.append((f"{s.id}: chd0 regression", valid and fn == s.expected_chd0))
            results.append((f"{s.id}: continuity", valid and fn.check_continuity()))
            results.append((f"{s.id}: nonnegative", valid and fn.check_nonnegative()))
        if s.expected_jumps:
            ok = valid and s.expected_jumps == {
                r.x: r.derivative_jump for r in report.breakpoints()
            }
            results.append((f"{s.id}: derivative jumps", ok))
    if s.expected_walls:
        beta = F(-2)
        found = {
            c.wall: c
            for c in enumerate_candidates(s.cls, beta, F(1, 100), F(10), s.config)
        }
        for wall in s.expected_walls:
            c = found.get(wall)
            ok = (
                c is not None
                and c.cross_a == wall_a_at(wall, beta)
                and _crosses_exactly_along(s.cls, c.witness, wall)
            )
            results.append((f"{s.id}: wall {wall} found+confirmed", ok))
    return results


def regression_checks() -> list[tuple[str, bool]]:
    """Every catalog regression as (name, passed), in a fixed order.

    Per scenario, by id: validity of a tree with a wall, the chd0
    regression with continuity and nonnegativity, the whole map of derivative
    jumps, and each expected wall found on beta = -2 at its exact crossing
    height and confirmed exactly: the slopes of the class and the witness
    agree on that semicircle and nowhere else.  An invalid tree fails every
    row that needs its function.  Then discriminant-0 rigidity: four line
    bundle classes admit no candidate wall.

    The continuity row is the only place `check` evaluates continuity:
    assembly holds it by construction (see `hntree.ValidationReport.chd0`).
    """
    results: list[tuple[str, bool]] = []
    for sid in list_scenarios():
        results.extend(_scenario_checks(load_scenario(sid)))
    for k in (-2, -1, 1, 2):
        v = line_bundle_class(k, PPAS)
        cands = enumerate_candidates(v, F(mu_slope(v)) - 2, F(1, 100), F(10))
        results.append((f"disc-0 rigidity for {v} (disc {discriminant(v)})", not cands))
    return results
