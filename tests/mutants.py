"""Mutation ledger: one-line mutants of `src/tiltwall` that the tests must kill.

Each entry names a module, an exact text of it, the text that replaces it,
the check or proof the change breaks, and the test expected to kill it: a
pytest node id, either a test file or, to keep the run short, one test in it.
The file is not collected by pytest (its name does not start with "test_").
Run it from anywhere:

    python tests/mutants.py

For each mutant it copies `src/` to a temporary directory, applies the
mutant there, and runs the named test with `-x` against the copy.  A mutant
is killed when pytest reports a failing test.  Hypothesis runs under the
`mutants` profile, registered here and nowhere else: explicit examples and
generation only, so a failure is reported without shrinking or explaining
it; no deadline, so a slow mutant is not taken for a killed one; and no
example database, so no mutant's failures are replayed in later runs.
The runner prints the outcome and wall time of each mutant and exits 1 if
any mutant survives or any entry no longer matches its module.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORDER_ORACLE = "tests/test_exactnum.py::TestOrderOracle::test_compare_matches_enclosure_oracle"
RANK_WINDOW = (
    "tests/test_walls.py::TestRankWindow::test_probe_window_is_small_and_independent_of_a_min"
)
INTEGER_WINDOW = "tests/test_walls.py::TestIntegerWindow::test_fixed_queries_keep_candidates"
BRUTE_FORCE = "tests/test_walls.py::TestRankWindow::test_matches_brute_force"
ONE_VIOLATION = "tests/test_cli.py::TestValidateCommand::test_one_violation_exits_1_everywhere"
EVAL_ORACLE = "tests/test_exactnum.py::TestEvalOracle"
QI_ORACLE = "tests/test_exactnum.py::TestQIOracle"
POLY_FORM = "tests/test_exactnum.py::TestQuadPoly::test_stored_form_is_canonical"
LATTICE_FORMS = (
    "tests/test_lattice.py::TestTwistAndDiscriminant::test_integer_forms_match_fraction_formulas"
)

HN_DECISION = "tests/test_hntree.py::TestHNFactors::test_matches_the_wall_height_decision"

# the Fraction form of `walls.wall_between`, as `tests/walls_oracle.py` keeps it
FRACTION_WALL_BETWEEN = """def wall_between(v, w):
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


"""

# pytest in a process that first registers the `mutants` hypothesis profile
PYTEST = (
    "import sys, pytest\n"
    "from hypothesis import Phase, settings\n"
    "settings.register_profile('mutants', phases=[Phase.explicit, Phase.generate],\n"
    "                          deadline=None, database=None)\n"
    "sys.exit(pytest.main(sys.argv[1:]))\n"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    old: str
    new: str
    breaks: str
    killed_by: str


MUTANTS = [
    Mutant(
        name="nesting without its inner clause",
        module="hntree",
        old=" and node.wall.radius_sq < parent_wall.radius_sq):",
        new="):",
        breaks="a node's wall lies strictly inside its parent's wall, not around it",
        killed_by="tests/test_hntree.py::TestValidation::test_inner_wall_must_nest",
    ),
    Mutant(
        name="well-ordering check disabled",
        module="hntree",
        old="if groups and x < groups[-1][0]:",
        new="if False:",
        breaks="leaf intercepts are non-increasing, so the leaves of a breakpoint "
        "are consecutive (continuity proof of `ValidationReport.chd0`)",
        killed_by="tests/test_hntree.py::TestValidation::test_swapped_children_break_well_order",
    ),
    Mutant(
        name="rank-0 leaf of degree -1 accepted",
        module="hntree",
        old="if node.cls.v0 == 0 and node.cls.v1 < 0:",
        new="if node.cls.v0 == 0 and node.cls.v1 < -1:",
        breaks="a rank-0 leaf has positive degree, so its jump v1 is sqrt(disc) "
        "(jump proof of `ValidationReport.breakpoints`)",
        killed_by=ONE_VIOLATION,
    ),
    Mutant(
        name="point beside a wall taken as inside it",
        module="hntree",
        old="(k * cd - cn * m) ** 2 * rd",
        new="0 * rd",
        breaks="the node decision is the sign of g, (beta - c)^2 + 2a - radius_sq "
        "scaled, which is positive beside the wall's feet at every a >= 0 "
        "(`hn_factors_at`)",
        killed_by="tests/test_hntree.py::TestHNFactors::test_beside_the_walls",
    ),
    Mutant(
        name="point on a wall taken as outside it",
        module="hntree",
        old="if g > 0:",
        new="if g >= 0:",
        breaks="g = 0 is a point on the wall, where the filtration is not unique "
        "(`hn_factors_at` raises PointOnWallError)",
        killed_by=HN_DECISION,
    ),
    Mutant(
        name="discriminant-sum check deleted",
        module="hntree",
        old="if not child_disc < disc:",
        new="if False:",
        breaks="the children's discriminants sum to less than the node's",
        killed_by=ONE_VIOLATION,
    ),
    Mutant(
        name="piece rule takes the right piece at a breakpoint",
        module="hntree",
        old="from bisect import bisect_left\n",
        new="from bisect import bisect_right as bisect_left\n",
        breaks="x takes pieces[i] for the first i with x <= breakpoints[i] "
        "(`PiecewiseQuadratic.eval_at`)",
        killed_by="tests/test_hntree.py::TestEvalAt::test_eval_at_follows_the_piece_rule",
    ),
    Mutant(
        name="sample takes the right piece at a threshold",
        module="hntree",
        old="pieces[bisect_left(thresholds, k)]",
        new="pieces[__import__('bisect').bisect_right(thresholds, k)]",
        breaks="k/den takes the piece of `eval_at`, the number of thresholds "
        "floor(b*den) below k (proof of `PiecewiseQuadratic.sample`)",
        killed_by="tests/test_hntree.py::TestSample::test_sample_equals_eval_at",
    ),
    Mutant(
        name="chd0 group without its last leaf",
        module="hntree",
        old="for leaf in leaves:",
        new="for leaf in leaves[:-1] or leaves:",
        breaks="the piece after a breakpoint adds chd(G) of every leaf switched on "
        "there (`ValidationReport.chd0`; chd0 by the paper's definition)",
        killed_by="tests/test_definition.py::test_assembly_matches_the_definition",
    ),
    Mutant(
        name="jump term with v0*x subtracted",
        module="hntree",
        old="leaf.cls.v1 + leaf.cls.v0 * x",
        new="leaf.cls.v1 - leaf.cls.v0 * x",
        breaks="the jump term chd(G)'(x) = v1 + v0*x is sqrt(disc(G)) at x = -p_G "
        "(jump proof of `ValidationReport.breakpoints`)",
        killed_by="tests/test_catalog.py::test_expected_jumps",
    ),
    Mutant(
        name="negative-rank root accepted",
        module="hntree",
        old="if tree.cls.v0 < 0:",
        new="if False:",
        breaks="a root of negative rank is refused: its chd0 would end in a "
        "piece with negative leading coefficient",
        killed_by=ONE_VIOLATION,
    ),
    Mutant(
        name="opposite signs settled without comparing squares",
        module="exactnum",
        old="return sa * ((x > 0) - (x < 0))",
        new="return sa",
        breaks="A + B*sqrt(D) with A, B of opposite signs has the sign of A only "
        "when A^2 > B^2*D (proof of `_sign`)",
        killed_by=ORDER_ORACLE,
    ),
    Mutant(
        name="cross term of u^2 with the wrong sign",
        module="exactnum",
        old="-2 * S * T, d1 * d2)",
        new="2 * S * T, d1 * d2)",
        breaks="u^2 = S^2*d1 + T^2*d2 + 2*S*T*sqrt(d1*d2) (proof of `compare`)",
        killed_by=ORDER_ORACLE,
    ),
    Mutant(
        name="sign of u from unsigned squares",
        module="exactnum",
        old="S * abs(S) * d1 + T * abs(T) * d2",
        new="S * S * d1 + T * T * d2",
        breaks="u = S*sqrt(d1) + T*sqrt(d2) has the sign of S*|S|*d1 + T*|T|*d2 "
        "(proof of `compare`)",
        killed_by=ORDER_ORACLE,
    ),
    Mutant(
        name="closed form at (A + B*sqrt(d))/C without B^2*d",
        module="exactnum",
        old="A2 * (A * A + B * B * d),",
        new="A2 * (A * A),",
        breaks="A2*x^2 contributes A2*B^2*d to the rational part (closed form of `quad_eval`)",
        killed_by=EVAL_ORACLE + "::test_quad_eval_matches_ring_ops",
    ),
    Mutant(
        name="closed form at (A + B*sqrt(d))/C without the 2 of 2*A*B",
        module="exactnum",
        old="B * (A1 * C + 2 * A2 * A)",
        new="B * (A1 * C + A2 * A)",
        breaks="A2*x^2 contributes 2*A2*A*B to the sqrt(d) part (closed form of `quad_eval`)",
        killed_by=EVAL_ORACLE + "::test_quad_eval_matches_ring_ops",
    ),
    Mutant(
        name="floor of b*den*sqrt(d) for b < 0 one too high",
        module="exactnum",
        old="else -r - 1)",
        new="else -r)",
        breaks="for B < 0, floor(B*den*sqrt(d)) is -isqrt(B^2*den^2*d) - 1 "
        "(proof of `QuadraticIrrational.floor_times`)",
        killed_by="tests/test_exactnum.py::TestFloorTimes::test_floor_times_matches_exact_search",
    ),
    Mutant(
        name="integer evaluation over L*q",
        module="exactnum",
        old="self._L * den * den",
        new="self._L * den",
        breaks="p(k/den) = ((A0*den + A1*k)*den + A2*k^2) / (L*den^2) "
        "(closed form of `QuadPoly.grid_value`)",
        killed_by=EVAL_ORACLE + "::test_grid_value_matches_horner",
    ),
    Mutant(
        name="polynomial without gcd normalisation",
        module="exactnum",
        old="g = math.gcd(A0, A1, A2, L)",
        new="g = 1",
        breaks="the stored (A0, A1, A2, L) has gcd 1, so equality and hash are "
        "structural (uniqueness proof of `_poly`)",
        killed_by=POLY_FORM,
    ),
    Mutant(
        name="lcm replaced by product",
        module="exactnum",
        old="L = math.lcm(q0, q1, q2)",
        new="L = q0 * q1 * q2",
        breaks="the lcm of the reduced denominators gives gcd(A0, A1, A2, L) = 1 "
        "(proof in the docstring of `QuadPoly`)",
        killed_by=POLY_FORM,
    ),
    Mutant(
        name="float of the bracket's lower end",
        module="exactnum",
        old="return (2 * n + 1) / 2 ** (e + 1)",
        new="return n / 2 ** e",
        breaks="x rounds like the midpoint (2n + 1)/2^(e+1), which is no rounding "
        "boundary, not like n/2^e, which may be one (proof of "
        "`QuadraticIrrational.__float__`)",
        killed_by="tests/test_exactnum.py::TestFloat::test_float_is_correctly_rounded",
    ),
    Mutant(
        name="quadratic irrational without gcd normalisation",
        module="exactnum",
        old="g = math.gcd(A, B, C)",
        new="g = 1",
        breaks="the stored (A, B, C) has gcd 1, so equality and hash are structural "
        "(trust contract of `_canonical`)",
        killed_by=QI_ORACLE + "::test_ring_ops_match_oracle",
    ),
    Mutant(
        name="integer discriminant without q",
        module="lattice",
        old="Fraction(v.v1 * v.v1 * q - 2 * v.v0 * n, q)",
        new="Fraction(v.v1 * v.v1 - 2 * v.v0 * n, q)",
        breaks="v1^2 - 2*v0*n/q = (v1^2*q - 2*v0*n)/q (integer form of `discriminant`)",
        killed_by=LATTICE_FORMS,
    ),
    Mutant(
        name="integer twist with +beta*v1",
        module="lattice",
        old="- 2 * k * m * q * v.v1 +",
        new="+ 2 * k * m * q * v.v1 +",
        breaks="t2 = v2 - beta*v1 + (beta^2/2)*v0 "
        "= (2*m^2*n - 2*k*m*q*v1 + k^2*q*v0)/(2*m^2*q) (`_twist_integers`, "
        "the one integer form that `twist` and `tilt_slope` share)",
        killed_by=LATTICE_FORMS,
    ),
    Mutant(
        name="tilt slope with the a-term's sign flipped",
        module="lattice",
        old="t2 * s - 2 * m * m * q * p * v.v0",
        new="t2 * s + 2 * m * m * q * p * v.v0",
        breaks="ch2^beta(v) - a*v0 = (T2*s - 2*m^2*q*p*v0)/(2*m^2*q*s) "
        "(integer form of `tilt_slope`)",
        killed_by="tests/test_lattice.py::TestSlopes::test_slope_sign_matches_charge",
    ),
    Mutant(
        name="integer wall centre with q dropped from N02",
        module="walls",
        old="n02 = v.v0 * m * q - n * w.v0 * r",
        new="n02 = v.v0 * m - n * w.v0 * r",
        breaks="d02 = v0*m/r - n*w0/q = (v0*m*q - n*w0*r)/(q*r) "
        "(integer form of `wall_between`)",
        killed_by="tests/test_walls.py::TestWallBetween::test_matches_fraction_form",
    ),
    Mutant(
        name="wall_between in Fraction arithmetic again",
        module="walls",
        old="def wall_between(v: ChernClass, w: ChernClass) -> Optional[NumericalWall]:\n",
        new=FRACTION_WALL_BETWEEN
        + "def _integer_wall_between(v: ChernClass, w: ChernClass) -> Optional[NumericalWall]:\n",
        breaks="`wall_between` builds one Fraction per value it returns, so at "
        "most two (the Fraction budget of `tests/test_counts.py`)",
        killed_by="tests/test_counts.py::test_wall_between_builds_at_most_two",
    ),
    Mutant(
        name="rank window one less",
        module="walls",
        old="return m + (math.isqrt(4 * floor_c + m * m) - m) // 2",
        new="return m + (math.isqrt(4 * floor_c + m * m) - m) // 2 - 1",
        breaks="d is the largest solution of d*(d + |v0|) <= floor(C) "
        "(proof of `_w0_bound`)",
        killed_by=RANK_WINDOW,
    ),
    Mutant(
        name="rank window one more",
        module="walls",
        old="return m + (math.isqrt(4 * floor_c + m * m) - m) // 2",
        new="return m + (math.isqrt(4 * floor_c + m * m) - m) // 2 + 1",
        breaks="the window is the one the proof of `_w0_bound` gives; a wider "
        "one finds the same walls, so only the pinned size shows it",
        killed_by=RANK_WINDOW,
    ),
    Mutant(
        name="disc(v - w) congruence dropped",
        module="walls",
        old="return disc_w % mod_w == 0 and disc_u % mod_u == 0",
        new="return disc_w % mod_w == 0",
        breaks="disc(v - w) is 0 or a multiple of the minimal discriminant "
        "(the screen of `_kept_candidates`)",
        killed_by=INTEGER_WINDOW,
    ),
    Mutant(
        name="disc(w) congruence dropped",
        module="walls",
        old="return disc_w % mod_w == 0 and disc_u % mod_u == 0",
        new="return disc_u % mod_u == 0",
        breaks="disc(w) is 0 or a multiple of the minimal discriminant "
        "(the screen of `_kept_candidates`)",
        killed_by=INTEGER_WINDOW,
    ),
    Mutant(
        name="k_lo rounded down",
        module="walls",
        old="k_lo = -(-den * (H * first[1] + K * G * first[0]) // (K * T_v * first[1]))",
        new="k_lo = den * (H * first[1] + K * G * first[0]) // (K * T_v * first[1])",
        breaks="w2 = k/den starts at ceil(den*e1) (the window of `_kept_candidates`)",
        killed_by=INTEGER_WINDOW,
    ),
    Mutant(
        name="k range one past k_hi",
        module="walls",
        old="for k in range(k_lo, k_hi + 1):",
        new="for k in range(k_lo, k_hi + 2):",
        breaks="w2 = k/den ends at floor(den*e2) (the window of `_kept_candidates`)",
        killed_by=INTEGER_WINDOW,
    ),
    Mutant(
        name="k range starts one past k_lo",
        module="walls",
        old="for k in range(k_lo, k_hi + 1):",
        new="for k in range(k_lo + 1, k_hi + 1):",
        breaks="w2 = k/den starts at ceil(den*e1) (the window of `_kept_candidates`)",
        killed_by=INTEGER_WINDOW,
    ),
    Mutant(
        name="v - w modulus without d",
        module="walls",
        old="mod_w, mod_u = den * cfg.minimal_discriminant, M * cfg.minimal_discriminant",
        new="mod_w, mod_u = den * cfg.minimal_discriminant, den * cfg.minimal_discriminant",
        breaks="d*den*disc(v - w) is a multiple of d*den*m exactly when disc(v - w) "
        "is a multiple of m (the screen of `_kept_candidates`)",
        killed_by=INTEGER_WINDOW,
    ),
    Mutant(
        name="pair filter dropped",
        module="walls",
        old="if (2 * w0, 2 * w1, 2 * d * k) < (v0, v1, den * n):",
        new="if True:",
        breaks="each pair {w, v - w} of kept candidates gives one witness, the "
        "smaller (proof in `enumerate_candidates`)",
        killed_by=BRUTE_FORCE,
    ),
    Mutant(
        name="pair filter reversed",
        module="walls",
        old="if (2 * w0, 2 * w1, 2 * d * k) < (v0, v1, den * n):",
        new="if (2 * w0, 2 * w1, 2 * d * k) > (v0, v1, den * n):",
        breaks="the witness of a pair {w, v - w} is the lexicographically smaller "
        "member (proof in `enumerate_candidates`)",
        killed_by=BRUTE_FORCE,
    ),
    Mutant(
        name="rank loop ends one step early",
        module="walls",
        old="v0 // 2 + 1, r):",
        new="v0 // 2 + 1 - r, r):",
        breaks="the smaller member of a pair {w, v - w} has 2*w0 <= v0, so the rank "
        "loop runs up to v0 // 2 and no further (proof in `enumerate_candidates`)",
        killed_by=BRUTE_FORCE,
    ),
    Mutant(
        name="lattice check dropped",
        module="walls",
        old="    cfg.check_class(v)\n",
        new="",
        breaks="the pairs {w, v - w} close up only on cfg's lattice, so an "
        "off-lattice class is refused (proof in `enumerate_candidates`)",
        killed_by="tests/test_walls.py::TestEnumeration::test_off_lattice_class_refused",
    ),
    Mutant(
        name="exact check with the w part of E not scaled by q",
        module="catalog",
        old="(q * p_w - 2 * q * r * a * w.v0)",
        new="(p_w - 2 * q * r * a * w.v0)",
        breaks="2*q*r*E = (r*P_v - 2*q*r*a*v0)*L_w - (q*P_w - 2*q*r*a*w0)*L_v "
        "(integer form of `catalog._crosses_exactly_along`)",
        killed_by="tests/test_walls.py::TestExactConfirmation::test_drawn_pairs",
    ),
]


def run_mutant(mutant: Mutant, workdir: Path) -> str:
    """'killed', 'survived', or a description of why the run is not a verdict."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "tiltwall" / f"{mutant.module}.py"
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"stale: the old text occurs {text.count(mutant.old)} times in {path.name}"
    path.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", PYTEST, "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", mutant.killed_by],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # pytest exits 1 when a test fails; other codes mean it did not get that far
    return {0: "survived", 1: "killed"}.get(done.returncode, f"pytest exit {done.returncode}")


def main() -> int:
    start = time.perf_counter()
    failures = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            outcome = run_mutant(mutant, Path(tmp))
        failures += outcome != "killed"
        print(f"{outcome:<9} {time.perf_counter() - began:6.1f} s  {mutant.module}: {mutant.name}"
              f" ({mutant.killed_by})", flush=True)
    total = time.perf_counter() - start
    print(f"\n{len(MUTANTS) - failures}/{len(MUTANTS)} mutants killed in {total:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
