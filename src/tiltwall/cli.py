"""Command-line surface: wall queries, tree validation, function assembly.

Exit codes: 0 success, 1 validation/check failure, 2 usage error.  All
numbers are rendered exactly; pass --approx for an extra decimal column.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

# no option starts with a digit, so "-5/2", "-.5" and "-2,4,-3" are values
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")

from . import catalog
from .exactnum import format_rational, parse_rational
from .hntree import (
    InvalidTreeError,
    assemble_chd0,
    assemble_chd1,
    hn_factors_at,
    tree_from_json,
    tree_to_json,
    validate_tree,
)
from .lattice import ChernClass, SurfaceConfig
from .svgplot import function_range, rational_grid, render_function_svg, render_walls_svg
from .walls import enumerate_candidates

USAGE_ERROR, CHECK_FAILURE = 2, 1
# `chd --format csv` keeps every sample in memory: at 100,000 samples
# ppas-ideal-5-W2 takes 0.3 s and 38 MB peak, process start included, on one
# Xeon core (Python 3.11.7), and the cost grows linearly, so a larger count is
# refused rather than left to run
MAX_SAMPLES = 100_000


def _load_config(args) -> SurfaceConfig:
    if args.config:
        with open(args.config) as fh:
            return SurfaceConfig.from_json(json.load(fh))
    return SurfaceConfig.preset(args.preset)


def _approx(value) -> str:
    return f"{float(value):.6g}"


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_walls(args) -> int:
    cfg = _load_config(args)
    v = ChernClass.parse(args.cls)
    beta = parse_rational(args.beta)
    candidates = enumerate_candidates(
        v,
        beta,
        parse_rational(args.amin),
        parse_rational(args.amax) if args.amax else None,
        cfg,
    )
    if args.format == "json":
        data = [
            {
                "wall": c.wall.to_json(),
                "cross_a": format_rational(c.cross_a),
                "witness": c.witness.to_json(),
                "witnesses": [w.to_json() for w in c.witnesses],
            }
            for c in candidates
        ]
        _emit(json.dumps(data, indent=2) + "\n", args.out)
        return 0
    if args.format == "svg":
        _emit(render_walls_svg(v, candidates, beta_star=beta), args.out)
        return 0
    header = ["center", "radius_sq", "cross_a", "witness"]
    rows = [
        [format_rational(c.wall.center), format_rational(c.wall.radius_sq),
         format_rational(c.cross_a), str(c.witness)]
        for c in candidates
    ]
    if args.format == "csv":
        _emit("".join(",".join(row) + "\n" for row in [header, *rows]), args.out)
        return 0
    if args.approx:
        header.append("cross_a~")
        for row, c in zip(rows, candidates):
            row.append(_approx(c.cross_a))
    _emit(_table(header, rows), args.out)
    return 0


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header)]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines) + "\n"


def _resolve_tree(args):
    if args.scenario is not None:
        scenario = catalog.load_scenario(args.scenario)
        if scenario.tree is None:
            raise ValueError(f"scenario {scenario.id} carries wall data only")
        return scenario.tree
    with open(args.tree) as fh:
        return tree_from_json(json.load(fh))


def cmd_chd(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    tree = _resolve_tree(args)
    fn = assemble_chd1(tree) if args.k == 1 else assemble_chd0(tree)
    if args.format == "json":
        _emit(json.dumps(fn.to_json(), indent=2) + "\n", args.out)
    elif args.format in ("csv", "svg"):
        try:
            text = _samples_csv(fn, args.samples) if args.format == "csv" else render_function_svg(fn)
        except OverflowError:
            raise ValueError(
                "a value beyond float range cannot be plotted or sampled in floats; "
                "use --format table or json"
            ) from None
        _emit(text, args.out)
    else:
        lines = []
        bounds = ["-inf"] + [str(b) for b in fn.breakpoints] + ["+inf"]
        for i, p in enumerate(fn.pieces):
            lines.append(f"[{bounds[i]}, {bounds[i + 1]}]:  {p}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _samples_csv(fn, samples: int) -> str:
    """x,value rows at samples + 1 points k/4096 of `rational_grid`: x exact,
    the value the float N / M of its exact value N/M from
    `PiecewiseQuadratic.sample`.  `int / int` is correctly rounded, so that is
    the float of the exact value; one beyond float range raises
    OverflowError."""
    den = 4096
    ks = rational_grid(*function_range(fn), samples, den)
    lines = ["x,value"]
    for k, (n, m) in zip(ks, fn.sample(ks, den)):
        lines.append(f"{format_rational(Fraction(k, den))},{n / m:.6g}")
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    tree = _resolve_tree(args)
    report = validate_tree(tree)
    if report:
        print("tree is valid")
        return 0
    for violation in report.violations:
        print(f"violation: {violation}")
    return CHECK_FAILURE


def cmd_hn(args) -> int:
    tree = _resolve_tree(args)
    validate_tree(tree).raise_if_invalid()  # an invalid tree exits 1, as in chd
    factors = hn_factors_at(tree, parse_rational(args.a), parse_rational(args.beta))
    header = ["class", "tilt_slope"]
    rows = []
    for cls, slope in factors:
        slope_txt = "+inf" if slope == float("inf") else format_rational(slope)
        rows.append([str(cls), slope_txt])
    _emit(_table(header, rows), args.out)
    return 0


def cmd_catalog(args) -> int:
    if args.id:
        scenario = catalog.load_scenario(args.id)
        if args.export:
            data = {
                "id": scenario.id,
                "config": scenario.config.to_json(),
                "class": scenario.cls.to_json(),
                "tree": tree_to_json(scenario.tree) if scenario.tree else None,
                "chd0": scenario.expected_chd0.to_json()
                if scenario.expected_chd0
                else None,
                "notes": scenario.notes,
            }
            _emit(json.dumps(data, indent=2) + "\n", args.out)
        else:
            summary = f"{scenario.id}: class {scenario.cls} on {scenario.config.name}\n"
            _emit(summary + f"  {scenario.notes}\n", args.out)
        return 0
    _emit("".join(f"{sid}\n" for sid in catalog.list_scenarios()), args.out)
    return 0


def cmd_check(args) -> int:
    results = catalog.regression_checks()
    width = max(len(name) for name, _ in results)
    for name, ok in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    passed = sum(ok for _, ok in results)
    print(f"\n{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else CHECK_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltwall",
        description="Exact wall-and-chamber computations for tilt stability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write output to a file instead of stdout")

    def add_tree_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--scenario", help="catalog scenario id")
        group.add_argument("--tree", help="path to a tree JSON file")

    p = sub.add_parser("walls", help="enumerate candidate walls crossing a segment")
    p.add_argument("--preset", choices=["ppas", "abelian-(1,2)"], default="ppas")
    p.add_argument("--config", help="path to a surface config JSON file")
    add_out(p)
    p.add_argument("--class", dest="cls", required=True, help='class triple, e.g. "2,0,-5"')
    p.add_argument("--beta", required=True, help="rational beta of the query line")
    p.add_argument("--amin", required=True, help="lower end of the segment (a = alpha^2/2)")
    p.add_argument("--amax", default=None,
                   help="upper end; default: none (the search is finite without one)")
    p.add_argument("--approx", action="store_true", help="add 6-digit decimal column")
    p.add_argument("--format", choices=["table", "json", "csv", "svg"], default="table")
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("chd", help="assemble a Chern degree function")
    add_out(p)
    add_tree_input(p)
    p.add_argument("--k", type=int, choices=[0, 1], default=0)
    p.add_argument("--samples", type=int, default=100, help="sample count in csv mode")
    p.add_argument("--format", choices=["table", "json", "csv", "svg"], default="table")
    p.set_defaults(func=cmd_chd)

    p = sub.add_parser("validate", help="validate a destabilization tree")
    add_tree_input(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hn", help="HN factor classes at a point (a, beta)")
    add_out(p)
    add_tree_input(p)
    p.add_argument("--a", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(func=cmd_hn)

    p = sub.add_parser("catalog", help="list or export built-in scenarios")
    add_out(p)
    p.add_argument("--id")
    p.add_argument("--export", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("check", help="run every catalog regression and invariant")
    p.set_defaults(func=cmd_check)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_VALUE

    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code (a usage error from argparse
    raises SystemExit(2), and --help SystemExit(0)).

    The parser is built on the first call and reused by every later call in
    the same process; parsing leaves it unchanged, so a reused parser answers
    as a fresh one does.  Only in-process callers gain: a shell invocation
    is a new process and builds it once.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
