"""Inputs of the three benchmark workloads and the operations that run them.

Every workload is a list of *slots*.  A slot fixes the input properties that
the cost depends on (preset, discriminant, a_min, a_max, radicand size,
command); the seed picks the concrete input inside the slot from a finite
pool and shuffles the slot order.  The pool is finite so that the reference
outputs recorded at the baseline commit (``reference.json``) cover every
input any seed can produce, and the slot list is fixed so that two seeds
cost about the same, which keeps the run-to-run spread small.

* ``walls-sweep``: ``enumerate_candidates`` on both presets.  The seed picks
  a twist by a power of the polarization, which moves the class and the query
  line together and leaves the screening work unchanged.
* ``functions-radicand``: the hntree pipeline on catalog trees and on
  generated leaf and one-level trees whose breakpoint radicands are primes
  from below 10 up to about 1e11.  The seed picks one of eight generated
  trees per slot.
* ``cli-session``: ``cli.main(argv)`` in-process, including malformed argv
  and tree JSON.  The seed picks twists, query points and the order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from tiltwall import catalog, cli, hntree, walls
from tiltwall.exactnum import format_rational, squarefree_decompose
from tiltwall.lattice import ChernClass, SurfaceConfig, discriminant, twist

from tracer import radicand_bucket

F = Fraction
WORKLOADS = ("walls-sweep", "functions-radicand", "cli-session")
TWISTS = range(-3, 4)
TREE_VARIANTS = 8
EVAL_POINTS = (F(-3), F(-1, 2), F(0), F(1, 3), F(5, 2))
PROBES = {
    "probe_disc100_a100": ("ppas", ChernClass(2, 0, -25), F(-6), F(1, 100), F(30)),
    "probe_disc100_a1000": ("ppas", ChernClass(2, 0, -25), F(-6), F(1, 1000), F(30)),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(data) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


@dataclass
class Op:
    """One closed-loop operation: run() is timed, digest() and check run after."""

    key: str
    kind: str
    props: dict
    run: Callable[[], Any]
    digest: Callable[[Any], dict]
    malformed: bool = False
    extra_check: Optional[Callable[[Any], Optional[str]]] = None


# -- walls-sweep --------------------------------------------------------------

PRESETS = {"ppas": SurfaceConfig.preset("ppas"), "abelian-(1,2)": SurfaceConfig.preset("abelian-(1,2)")}

# (preset, base class, beta offset below mu, a_min, a_max or None for the default)
# Base classes of discriminant D: ppas (2,0,-D/4) and (4,2,(4-D)/8), abelian-(1,2)
# (4,0,-D/8) and (8,4,(16-D)/16).  The list covers D from 4 to 100 and a_min
# from 1/10 to 1/1000 with the default and an explicit a_max; high D is paired
# with large a_min so one pass stays a few seconds at the baseline.
WALL_SLOTS = [
    ("ppas", (2, 0, "-1"), 2, "1/10", None),
    ("ppas", (2, 0, "-1"), 2, "1/50", "10"),
    ("ppas", (2, 0, "-1"), 1, "1/200", None),
    ("ppas", (2, 0, "-1"), 1, "1/1000", "2"),
    ("ppas", (2, 0, "-2"), 1, "1/500", "2"),
    ("ppas", (2, 0, "-2"), 3, "1/20", None),
    ("ppas", (2, 0, "-4"), 3, "1/10", "10"),
    ("ppas", (2, 0, "-4"), 3, "1/100", "10"),
    ("ppas", (2, 0, "-6"), 3, "1/20", "10"),
    ("ppas", (2, 0, "-6"), 4, "1/10", None),
    ("ppas", (2, 0, "-10"), 4, "1/10", None),
    ("ppas", (2, 0, "-10"), 4, "1/20", "10"),
    ("ppas", (2, 0, "-16"), 5, "1/10", "10"),
    ("ppas", (2, 0, "-16"), 5, "1/20", "10"),
    ("ppas", (2, 0, "-25"), 6, "1/10", "10"),
    ("ppas", (2, 0, "-25"), 6, "1/10", "10"),
    ("ppas", (2, 0, "-25"), 6, "1/10", "10"),
    ("ppas", (4, 2, "0"), 1, "1/10", None),
    ("ppas", (4, 2, "0"), 2, "1/20", "10"),
    ("ppas", (4, 2, "0"), 1, "1/100", None),
    ("ppas", (4, 2, "-1/2"), 2, "1/10", "10"),
    ("ppas", (4, 2, "-1/2"), 1, "1/50", None),
    ("ppas", (4, 2, "-3/2"), 2, "1/10", None),
    ("ppas", (4, 2, "-3/2"), 2, "1/20", "10"),
    ("ppas", (4, 2, "-5/2"), 2, "1/10", "10"),
    ("ppas", (4, 2, "-5/2"), 1, "1/20", None),
    ("ppas", (4, 2, "-9/2"), 2, "1/10", None),
    ("ppas", (4, 2, "-15/2"), 3, "1/10", "10"),
    ("ppas", (4, 2, "-12"), 3, "1/10", "10"),
    ("ppas", (4, 2, "-12"), 3, "1/10", "10"),
    ("ppas", (4, 2, "-12"), 3, "1/10", "10"),
    ("abelian-(1,2)", (4, 0, "-1/2"), 1, "1/1000", None),
    ("abelian-(1,2)", (4, 0, "-1/2"), 1, "1/500", "2"),
    ("abelian-(1,2)", (4, 0, "-1/2"), 2, "1/50", "10"),
    ("abelian-(1,2)", (4, 0, "-1/2"), 1, "1/10", None),
    ("abelian-(1,2)", (4, 0, "-1"), 1, "1/200", None),
    ("abelian-(1,2)", (4, 0, "-1"), 2, "1/20", "10"),
    ("abelian-(1,2)", (4, 0, "-2"), 2, "1/10", "10"),
    ("abelian-(1,2)", (4, 0, "-3"), 2, "1/20", None),
    ("abelian-(1,2)", (4, 0, "-5"), 3, "1/10", None),
    ("abelian-(1,2)", (4, 0, "-5"), 3, "1/20", "10"),
    ("abelian-(1,2)", (4, 0, "-8"), 3, "1/10", "10"),
    ("abelian-(1,2)", (4, 0, "-25/2"), 3, "1/10", None),
    ("abelian-(1,2)", (4, 0, "-25/2"), 4, "1/10", "10"),
    ("abelian-(1,2)", (8, 4, "1/2"), 2, "1/20", None),
    ("abelian-(1,2)", (8, 4, "-1/2"), 2, "1/20", "10"),
    ("abelian-(1,2)", (8, 4, "-5/2"), 2, "1/10", "10"),
]


@dataclass(frozen=True)
class WallQuery:
    preset: str
    v: ChernClass
    beta: Fraction
    a_min: Fraction
    a_max: Optional[Fraction]

    @property
    def key(self) -> str:
        a_max = format_rational(self.a_max) if self.a_max is not None else "default"
        return f"walls|{self.preset}|{self.v}|{format_rational(self.beta)}|{format_rational(self.a_min)}|{a_max}"

    @property
    def props(self) -> dict:
        return {
            "preset": self.preset,
            "disc": format_rational(discriminant(self.v)),
            "a_min": format_rational(self.a_min),
            "a_max": "default" if self.a_max is None else format_rational(self.a_max),
        }

    def run(self):
        return walls.enumerate_candidates(self.v, self.beta, self.a_min, self.a_max, PRESETS[self.preset])


def twisted(v: ChernClass, k: int) -> ChernClass:
    """v tensored with the k-th power of the polarization."""
    return ChernClass(v.v0, v.v1 + k * v.v0, v.v2 + k * v.v1 + F(k * k * v.v0, 2))


def wall_query(slot, k: int) -> WallQuery:
    preset, (v0, v1, v2), delta, a_min, a_max = slot
    v = ChernClass(v0, v1, F(v2))
    beta = F(v1, v0) - delta
    return WallQuery(
        preset, twisted(v, k), beta + k, F(a_min), F(a_max) if a_max is not None else None
    )


def walls_json(candidates) -> list:
    """Same structure as ``tiltwall walls --format json``."""
    return [
        {
            "wall": c.wall.to_json(),
            "cross_a": format_rational(c.cross_a),
            "witness": c.witness.to_json(),
            "witnesses": [w.to_json() for w in c.witnesses],
        }
        for c in candidates
    ]


def walls_digest(candidates) -> dict:
    return {
        "sha256": sha256(canonical(walls_json(candidates))),
        "walls": len(candidates),
        "witnesses": sum(len(c.witnesses) for c in candidates),
    }


def crossing_height(v: ChernClass, w: ChernClass, beta: Fraction) -> Optional[Fraction]:
    """Height a where v and w have equal tilt slope over beta.

    From (t2v - a*v0)/t1v = (t2w - a*w0)/t1w with the beta-twisted
    components: a = (t2v*t1w - t2w*t1v) / (v0*t1w - w0*t1v).
    """
    tv, tw = twist(v, beta), twist(w, beta)
    den = v.v0 * tw.t1 - w.v0 * tv.t1
    if den == 0:
        return None
    return (tv.t2 * tw.t1 - tw.t2 * tv.t1) / den


def check_crossings(query: WallQuery, candidates) -> Optional[str]:
    """Every witness must cross v at the reported height; None when all do."""
    for c in candidates:
        for w in c.witnesses:
            a = crossing_height(query.v, w, query.beta)
            if a != c.cross_a:
                return f"witness {w} crosses at {a}, reported {c.cross_a}"
    return None


def walls_op(query: WallQuery) -> Op:
    return Op(
        query.key,
        "walls",
        query.props,
        query.run,
        walls_digest,
        extra_check=lambda out: check_crossings(query, out),
    )


def probe_query(name: str) -> WallQuery:
    preset, v, beta, a_min, a_max = PROBES[name]
    return WallQuery(preset, v, beta, a_min, a_max)


def walls_pool() -> list[WallQuery]:
    return [wall_query(slot, k) for slot in WALL_SLOTS for k in TWISTS]


def walls_batch(rng: random.Random) -> list[Op]:
    ops = [walls_op(wall_query(slot, rng.choice(TWISTS))) for slot in WALL_SLOTS]
    rng.shuffle(ops)
    return ops


# -- functions-radicand -------------------------------------------------------

# (shape, log10 of the largest radicand, log10 of the second one)
TREE_SLOTS = [
    ("leaf", 0, None),
    ("leaf", 1, None),
    # twenty small leaves of about the same cost keep the median off the step
    # up to the one-level trees
    *[("leaf", 2, None)] * 10,
    *[("leaf", 3, None)] * 10,
    ("leaf", 4, None),
    ("leaf", 5, None),
    ("leaf", 6, None),
    ("leaf", 7, None),
    ("leaf", 8, None),
    ("one-level", 1, 0),
    ("one-level", 3, 2),
    ("one-level", 5, 3),
    ("one-level", 7, 4),
    ("one-level", 8, 5),
    ("one-level", 9, 6),
    # six leaves of about the same cost set the tail whether a run makes two
    # or three passes
    *[("leaf", 9, None)] * 6,
    ("leaf", 10.7, None),
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _prime_near(rng: random.Random, e: float) -> int:
    """A prime in [10^e, 1.02*10^e), or below 10 for e = 0.

    The range is narrow so that the trial division, whose cost grows with the
    square root of the radicand, costs about the same for every seed.
    """
    if e == 0:
        return rng.choice([2, 3, 5, 7])
    low = int(10**e)
    n = rng.randrange(low, max(low + 2, int(1.02 * low)))
    while not _is_prime(n):
        n += 1
    return n


def _family(a: int, b: int, p: int) -> Optional[ChernClass]:
    """ppas class (2a, 2b, (b^2 - p)/a) of discriminant 4p, if integral."""
    v2 = F(b * b - p, a)
    if (2 * v2).denominator != 1:
        return None
    return ChernClass(2 * a, 2 * b, v2)


def _radicand(v: ChernClass) -> int:
    d = discriminant(v)
    if d == 0:
        return 1
    return squarefree_decompose(d.numerator * d.denominator)[1]


def tree_radicand(tree) -> int:
    return max(_radicand(leaf.cls) for leaf in hntree.tree_leaves(tree))


def _hn_grid(tree) -> list:
    """Two-by-two grid of (a, beta) left of the vertical wall and off every wall."""
    root = tree.cls
    mu = F(root.v1, root.v0) if root.v0 else F(0)
    grid = []
    for a in (F(1, 7), F(5, 3)):
        for offset in (F(1, 3), F(5, 2)):
            try:
                hntree.hn_factors_at(tree, a, mu - offset)
            except hntree.PointOnWallError:
                continue
            grid.append((a, mu - offset))
    return grid


def generate_tree(rng: random.Random, shape: str, e1: float, e2: Optional[float]):
    """A tree accepted by validate_tree whose leaves have prime radicands."""
    if shape == "leaf":
        p = _prime_near(rng, e1)
        while True:
            v = _family(rng.choice([1, 2]), rng.randint(-3, 3), p)
            if v is not None:
                return hntree.TreeLeaf(v)
    p1, p2 = _prime_near(rng, e1), _prime_near(rng, e2)
    while True:
        w = _family(rng.choice([1, 2]), rng.randint(-5, 5), p1)
        u = _family(rng.choice([-2, -1, 1, 2]), rng.randint(-5, 5), p2)
        if w is None or u is None or w.v0 + u.v0 <= 0:
            continue
        v = ChernClass(w.v0 + u.v0, w.v1 + u.v1, w.v2 + u.v2)
        wall = walls.wall_between(v, w)
        if not isinstance(wall, walls.Semicircle):
            continue
        for children in ((w, u), (u, w)):
            tree = hntree.TreeNode(v, wall, [hntree.TreeLeaf(c) for c in children])
            if hntree.validate_tree(tree):
                return tree


def tree_pool() -> list[dict]:
    """Every tree any seed can draw: catalog trees, then eight per slot."""
    pool = []
    for sid in catalog.list_scenarios():
        tree = catalog.load_scenario(sid).tree
        if isinstance(tree, hntree.TreeNode):
            pool.append({"key": f"tree|catalog|{sid}", "slot": "catalog", "tree": hntree.tree_to_json(tree)})
    rng = random.Random(20210507)
    for n, (shape, e1, e2) in enumerate(TREE_SLOTS):
        slot = f"s{n:02d}-{shape}-e{e1}" + (f"-e{e2}" if e2 is not None else "")
        for i in range(TREE_VARIANTS):
            tree = generate_tree(rng, shape, e1, e2)
            pool.append({"key": f"tree|{slot}|{i}", "slot": slot, "tree": hntree.tree_to_json(tree)})
    for entry in pool:
        tree = hntree.tree_from_json(entry["tree"])
        entry["grid"] = [[format_rational(a), format_rational(b)] for a, b in _hn_grid(tree)]
        entry["radicand"] = tree_radicand(tree)
    return pool


def run_tree(tree, grid):
    """The functions-radicand operation on one tree."""
    report = hntree.validate_tree(tree)
    chd0 = hntree.assemble_chd0(tree)
    try:
        chd1 = hntree.assemble_chd1(tree)
    except ValueError as exc:  # chd1 is undefined when it goes negative
        chd1 = exc
    breakpoints = hntree.classify_breakpoints(tree)
    nonnegative = chd0.check_nonnegative()
    values = [chd0.eval_at(x) for x in EVAL_POINTS]
    factors = [hntree.hn_factors_at(tree, a, b) for a, b in grid]
    return report, chd0, chd1, breakpoints, nonnegative, values, factors


def tree_digest(out) -> dict:
    report, chd0, chd1, breakpoints, nonnegative, values, factors = out
    data = {
        "valid": report.passed,
        "violations": report.violations,
        "chd0": chd0.to_json(),
        "chd1": {"undefined": str(chd1)} if isinstance(chd1, Exception) else chd1.to_json(),
        "breakpoints": [
            [str(r.x), str(r.derivative_jump), r.differentiable, sorted(r.condition_tags),
             r.overlap, [str(leaf.cls) for leaf in r.contributing_leaves]]
            for r in breakpoints
        ],
        "nonnegative": nonnegative,
        "values": [str(v) for v in values],
        "hn": [[[str(c), str(s)] for c, s in fs] for fs in factors],
    }
    return {"sha256": sha256(canonical(data)), "chd0_sha256": sha256(canonical(data["chd0"]))}


def tree_op(entry: dict) -> Op:
    tree = hntree.tree_from_json(entry["tree"])
    grid = [(F(a), F(b)) for a, b in entry["grid"]]
    props = {
        "slot": entry["slot"],
        "radicand": entry["radicand"],
        "radicand_bucket": radicand_bucket(entry["radicand"]),
    }
    return Op(entry["key"], "tree", props, lambda: run_tree(tree, grid), tree_digest)


def functions_batch(rng: random.Random, pool: list[dict]) -> list[Op]:
    by_slot: dict[str, list[dict]] = {}
    for entry in pool:
        by_slot.setdefault(entry["slot"], []).append(entry)
    entries = list(by_slot.pop("catalog"))
    for slot in sorted(by_slot):
        entries.append(rng.choice(by_slot[slot]))
    ops = [tree_op(e) for e in entries]
    rng.shuffle(ops)
    return ops


# -- cli-session --------------------------------------------------------------

DATA = "perfbench/data"
CLI_WALL_CLASSES = [  # (preset, class, beta offset below mu, a_min)
    ("ppas", (2, 0, -5), 2, "1/20"),
    ("ppas", (2, 0, -4), 3, "1/10"),
    ("ppas", (2, 0, -3), 2, "1/20"),
    ("ppas", (2, 0, -6), 3, "1/20"),
    ("ppas", (4, 2, "-3/2"), 2, "1/20"),
    ("abelian-(1,2)", (4, 0, -1), 1, "1/10"),
    ("abelian-(1,2)", (4, 0, -3), 2, "1/10"),
    ("abelian-(1,2)", (4, 0, -5), 2, "1/10"),
]
HN_POINTS = [("1/50", "-5/2"), ("1/7", "-1/3"), ("1/3", "-3/2"), ("2", "-4"), ("1/100", "-9/4")]
MALFORMED = [
    ["walls", "--class", "2,0,-5", "--beta", "1/0", "--amin", "1/100"],
    ["walls", "--class", "2,0,1/0", "--beta", "-2", "--amin", "1/100"],
    ["walls", "--class", "2,0", "--beta", "-2", "--amin", "1/100"],
    ["walls", "--class", "2,0,-5", "--beta", "-2"],
    ["validate", "--tree", f"{DATA}/bad-class.json"],
    ["validate", "--tree", f"{DATA}/invalid-order.json"],
    ["chd", "--tree", f"{DATA}/invalid-order.json", "--format", "json"],
    ["validate", "--tree", f"{DATA}/not-json.json"],
    ["chd", "--tree", f"{DATA}/missing.json"],
    ["hn", "--scenario", "no-such-scenario", "--a", "1", "--beta", "-1"],
    ["frobnicate"],
]


@dataclass
class CliOutcome:
    code: Any  # int exit code, or "uncaught:<ExceptionType>"
    stdout: str
    stderr: str

    @property
    def clean(self) -> bool:
        return self.code in (0, 1, 2)


def run_cli(argv: list[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught crash is an outcome, not a benchmark error
            code = f"uncaught:{type(exc).__name__}"
    return CliOutcome(code, out.getvalue(), err.getvalue())


def cli_digest(outcome: CliOutcome) -> dict:
    lines = outcome.stderr.strip().splitlines()
    return {
        "outcome": outcome.code,
        "stdout_sha256": sha256(outcome.stdout),
        "stderr_last": lines[-1] if lines else "",
    }


def cli_op(argv: list[str], malformed: bool = False) -> Op:
    props = {"command": argv[0], "malformed": malformed}
    return Op("cli|" + " ".join(argv), "cli", props, lambda: run_cli(argv), cli_digest, malformed)


def _cli_walls_argv(slot, k: int, fmt: str) -> list[str]:
    preset, (v0, v1, v2), delta, a_min = slot
    v = twisted(ChernClass(v0, v1, v2), k)
    beta = F(v1, v0) - delta + k
    return ["walls", "--preset", preset, "--class", f"{v.v0},{v.v1},{format_rational(v.v2)}",
            "--beta", format_rational(beta), "--amin", a_min, "--format", fmt]


def _tree_scenarios() -> list[str]:
    return [sid for sid in catalog.list_scenarios() if catalog.load_scenario(sid).tree is not None]


def cli_argv_choices():
    """Per slot, the argv lists a seed can choose from (first slot: check)."""
    slots = [[["check"]], [["catalog"]]]
    for sid in catalog.list_scenarios():
        slots.append([["catalog", "--id", sid]])
        slots.append([["catalog", "--id", sid, "--export"]])
    for sid in _tree_scenarios():
        for fmt in ("table", "json", "csv", "svg"):
            slots.append([["chd", "--scenario", sid, "--format", fmt]])
        slots.append([["validate", "--scenario", sid]])
        slots.append([["hn", "--scenario", sid, "--a", a, "--beta", b] for a, b in HN_POINTS])
        if not catalog.load_scenario(sid).trivial:
            for fmt in ("table", "json", "csv", "svg"):
                slots.append([["chd", "--scenario", sid, "--k", "1", "--format", fmt]])
    path = f"{DATA}/ppas-ideal-5-W2.json"
    slots.append([["validate", "--tree", path]])
    slots.append([["chd", "--tree", path, "--format", "json"]])
    slots.append([["hn", "--tree", path, "--a", a, "--beta", b] for a, b in HN_POINTS])
    for slot in CLI_WALL_CLASSES:
        for fmt in ("table", "json", "csv", "svg"):
            slots.append([_cli_walls_argv(slot, k, fmt) for k in TWISTS])
    return slots


def cli_pool() -> list[tuple[list[str], bool]]:
    pool = [(argv, False) for choices in cli_argv_choices() for argv in choices]
    return pool + [(argv, True) for argv in MALFORMED]


def cli_batch(rng: random.Random) -> list[Op]:
    ops = [cli_op(rng.choice(choices)) for choices in cli_argv_choices()]
    ops += [cli_op(argv, malformed=True) for argv in MALFORMED]
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, reference: dict) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "walls-sweep":
        return walls_batch(rng)
    if workload == "functions-radicand":
        return functions_batch(rng, reference["trees"])
    if workload == "cli-session":
        return cli_batch(rng)
    raise ValueError(f"unknown workload {workload!r}")


def input_digest(ops: list[Op]) -> str:
    return sha256("\n".join(op.key for op in ops))
