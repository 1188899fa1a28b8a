"""tiltwall benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload walls-sweep --seed 1 --seconds 5 --trace 0

One client runs a closed loop in one process and one thread: each operation
starts when the previous one returns.  The loop repeats the seeded batch in
whole passes, at least two, until ``--seconds`` have elapsed.  Every
operation's output is checked against ``reference.json`` (recorded at the
baseline commit) outside the timed region.

``--trace 0`` prints the end-to-end metrics:

* ``ops_per_s``: loop operations over the time spent inside them;
* ``op_p50_ms``, ``op_tail_ms``: median and the highest percentile that
  still has ten samples beyond it (the percentile is printed);
* ``success_ratio``: 1 - failed_ratio, where an operation fails if it raises,
  exits outside {0,1,2}, or gives output that differs from the reference on a
  valid input.  The known crashes on malformed CLI input count here and are
  listed; they do not count in the result's ``failed`` field, which counts
  outputs that the reference does not allow;
* ``peak_rss_mb``: peak resident memory after the loop;
* ``setup_s``: median time of a fresh interpreter to import ``tiltwall.cli``;
* ``check_s``: ``tiltwall check`` (loop samples in cli-session, one run after
  the loop elsewhere);
* ``probe_disc100_a100_s``, ``probe_disc100_a1000_s``: ``walls`` for
  (2,0,-25) at beta=-6, a_max=30 (median of three runs, and one run).

``check`` and the probes run in every workload because every run reports
every end-to-end metric.  Timings are scaled for host-speed drift (see
``speed.py``); the report keeps the raw figures.  ``--trace 1`` runs one
untraced pass, then traced passes for ``--seconds``, then the traced probe
at a_min=1/100, and prints the per-layer metrics per pass (probe counters
per probe run).  The last stdout line is the JSON result; a full report with
per-operation records (and the spans, when traced) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TAIL_BEYOND = 10
SETUP_REPEATS = 5
PROBE_100_REPEATS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "check_s": "s",
    "probe_disc100_a100_s": "s",
    "probe_disc100_a1000_s": "s",
}

SELF_S = [
    "walls.enumerate_candidates",
    "lattice.discriminant",
    "hntree.validate_tree",
    "hntree.assemble_chd0",
    "hntree.classify_breakpoints",
    "hntree.eval_at",
    "hntree.hn_factors_at",
    "svgplot.render_walls_svg",
    "svgplot.render_function_svg",
    "catalog.load_scenario",
    "cli.main",
]
CALLS = [
    "walls.enumerate_candidates",
    "walls.wall_between",
    "lattice.discriminant",
    "svgplot.render_walls_svg",
    "svgplot.render_function_svg",
]
BUCKETS = ["lt1e3", "1e3-1e6", "1e6-1e9", "ge1e9"]
COUNTS = [
    "walls.candidates_screened",
    "walls.w0_window",
    "walls.witnesses",
    "exactnum.fraction_new",
    "exactnum.qi_new",
]
PROBE_COUNTS = ["candidates_screened", "w0_window", "walls", "witnesses", "fraction_new"]


def per_layer_units() -> dict:
    units = {}
    for name in CALLS:
        units[name + ".calls"] = "count"
    for name in SELF_S:
        units[name + ".self_s"] = "s"
    for bucket in BUCKETS:
        units[f"exactnum.squarefree_decompose.{bucket}.calls"] = "count"
        units[f"exactnum.squarefree_decompose.{bucket}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["walls.useful_ratio"] = "ratio"
    for code in ("0", "1", "2", "uncaught"):
        units[f"cli.exit_code.{code}"] = "count"
    for name in PROBE_COUNTS:
        units[f"probe_disc100_a100.{name}"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-check size: five loop operations, one pass, one fresh import",
    )
    return parser.parse_args(argv)


# -- environment ---------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tiltwall").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def environment(args, threads_before) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "TILTWALL_THREADS": "unset" if threads_before is None else f"unset (was {threads_before!r})",
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TILTWALL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import tiltwall.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def measure_setup(repeats: int, meter) -> list[float]:
    """Import time of tiltwall.cli in fresh interpreters, after one warm-up.

    Each import is scaled by the host speed measured right before and after it.
    """
    samples = []
    for i in range(repeats + 1):
        meter.sample(5)
        result = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if result.returncode != 0:
            fail("fresh import of tiltwall.cli failed:\n" + result.stderr)
        start = meter.times[-1]
        meter.sample(5)
        if i:
            imported = float(result.stdout.strip().splitlines()[-1])
            samples.append(imported * meter.factor(start, meter.times[-1]))
    return samples


# -- checking ------------------------------------------------------------------


class Checker:
    """Compares outputs with the reference and keeps the failure counts."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0  # raised, exited outside {0,1,2}, or wrong output on valid input
        self.wrong = 0  # result's "failed": outcome not allowed by the reference
        self.problems: list[str] = []
        self.known_crashes: dict[str, str] = {}
        self._extra_checked: set[str] = set()

    def check(self, op, out) -> str:
        """Record one outcome; returns 'ok', 'failed' (known crash) or 'wrong'."""
        self.attempted += 1
        expected = self.expected.get(op.key)
        if isinstance(out, Exception):
            got = {"raised": f"{type(out).__name__}: {out}"}
            crashed = True
        else:
            got = op.digest(out)
            crashed = op.kind == "cli" and not out.clean
        matches = expected is not None and got == expected
        if op.malformed:
            allowed = matches or (not crashed and out.code in (1, 2))
        else:
            allowed = matches
        if allowed and op.extra_check is not None and op.key not in self._extra_checked:
            self._extra_checked.add(op.key)
            problem = op.extra_check(out)
            if problem:
                allowed = False
                got = {"crossing": problem}
        failed = crashed or not allowed
        if failed:
            self.failed += 1
        if not allowed:
            self.wrong += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.key}: expected {expected}, got {got}")
            return "wrong"
        if crashed:
            self.known_crashes[op.key] = str(out.code)
            return "failed"
        return "ok"


# -- running -------------------------------------------------------------------


def outcome_label(op, out) -> str:
    if isinstance(out, Exception):
        return "raised"
    if op.kind == "cli":
        return str(out.code) if out.clean else "uncaught"
    return "ok"


def run_op(op, tracer=None, op_id=None, meter=None):
    """Run one operation; returns (start, end, seconds, output or the exception it raised).

    seconds leaves out the calibration kernel runs that interrupted the operation.
    """
    if tracer is not None:
        tracer.op_id = op_id
        tracer.active = True
    kernel_before = meter.busy if meter is not None else 0.0
    start = time.perf_counter()
    try:
        out = tracer.op_span("op." + op.kind, op.run) if tracer is not None else op.run()
    except Exception as exc:  # a raising operation is a measured outcome
        out = exc
    end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    kernel = meter.busy - kernel_before if meter is not None else 0.0
    return start, end, end - start - kernel, out


def closed_loop(ops, seconds, checker, tracer=None, meter=None, min_passes=2, max_passes=None):
    """Whole passes over ops until seconds have elapsed; returns records and passes.

    At least two passes, so the tail percentile never rests on one pass.
    """
    records = []
    start = time.perf_counter()
    passes = 0
    while True:
        for op in ops:
            op_start, op_end, elapsed, out = run_op(op, tracer, len(records), meter)
            verdict = checker.check(op, out)
            records.append({
                "key": op.key, "props": op.props, "start": op_start, "end": op_end, "raw_s": elapsed,
                "outcome": outcome_label(op, out), "verdict": verdict,
            })
            if tracer is not None and op.kind == "cli":
                tracer.counts["cli.exit_code." + outcome_label(op, out)] += 1
        passes += 1
        if max_passes is not None and passes >= max_passes:
            break
        if passes >= min_passes and time.perf_counter() - start >= seconds:
            break
    return records, passes


def fixed_op(op, checker, meter) -> float:
    """Scaled duration of one checked run of op outside the loop."""
    start, end, elapsed, out = run_op(op, meter=meter)
    checker.check(op, out)
    return elapsed * meter.factor(start, end)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def property_shares(records: list[dict]) -> dict:
    """Share of loop operations per value of each recorded input property."""
    shares: dict[str, Counter] = {}
    for rec in records:
        for name, value in rec["props"].items():
            if name == "radicand":
                continue
            shares.setdefault(name, Counter())[str(value)] += 1
    n = len(records)
    return {
        name: {value: round(count / n, 4) for value, count in sorted(counter.items())}
        for name, counter in shares.items()
    }


# -- the two kinds of run ---------------------------------------------------------


def timed_run(args, ops, checker, workloads):
    meter = SpeedMeter()
    setup = measure_setup(1 if args.tiny else SETUP_REPEATS, meter)
    meter.start()
    try:
        records, passes = closed_loop(
            ops, args.seconds, checker, meter=meter, max_passes=1 if args.tiny else None
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_op = workloads.cli_op(["check"])
        fixed_check = [] if any(r["key"] == check_op.key for r in records) else (
            [fixed_op(check_op, checker, meter)])
        probe_100 = workloads.walls_op(workloads.probe_query("probe_disc100_a100"))
        probe_100_s = [fixed_op(probe_100, checker, meter) for _ in range(PROBE_100_REPEATS)]
        probe_1000 = workloads.walls_op(workloads.probe_query("probe_disc100_a1000"))
        probe_1000_s = fixed_op(probe_1000, checker, meter)
    finally:
        meter.stop()
    for rec in records:
        rec["factor"] = meter.factor(rec["start"], rec["end"])
        rec["seconds"] = rec["raw_s"] * rec["factor"]
    check = [r["seconds"] for r in records if r["key"] == check_op.key] or fixed_check

    durations = [r["seconds"] for r in records]
    tail_s, tail_pct = tail(durations)
    values = {
        "ops_per_s": (len(durations) / sum(durations), len(durations), ""),
        "op_p50_ms": (statistics.median(durations) * 1000, len(durations), ""),
        "op_tail_ms": (tail_s * 1000, len(durations), (
            f"p{tail_pct:.2f}, {TAIL_BEYOND} samples beyond" if len(durations) > TAIL_BEYOND
            else f"maximum: fewer than {TAIL_BEYOND + 1} samples")),
        "success_ratio": (1 - checker.failed / checker.attempted, checker.attempted,
                          f"failed_ratio {checker.failed}/{checker.attempted}"),
        "peak_rss_mb": (peak_rss_mb, 1, "after the loop"),
        "setup_s": (statistics.median(setup), len(setup), "median"),
        "check_s": (statistics.median(check), len(check), "median"),
        "probe_disc100_a100_s": (statistics.median(probe_100_s), len(probe_100_s), "median"),
        "probe_disc100_a1000_s": (probe_1000_s, 1, "one run"),
    }
    raw = [r["raw_s"] for r in records]
    extra = {
        "passes": passes,
        "op_tail_percentile": tail_pct,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1000,
        "kernel_median_ms": statistics.median(meter.seconds) * 1000,
        "kernel_samples": len(meter.seconds),
        "property_shares": property_shares(records),
    }
    return values, records, END_TO_END_UNITS, extra


def traced_run(args, ops, checker, workloads):
    from tracer import Tracer

    max_passes = 1 if args.tiny else None
    plain, _ = closed_loop(ops, 0, checker, max_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        records, passes = closed_loop(ops, args.seconds, checker, tracer, max_passes=max_passes)
        loop_counts = tracer.snapshot()
        probe = workloads.walls_op(workloads.probe_query("probe_disc100_a100"))
        _, _, _, out = run_op(probe, tracer, "probe_disc100_a100")
        checker.check(probe, out)
        probe_counts = tracer.snapshot() - loop_counts
    finally:
        tracer.uninstall()

    traced_pass = sum(r["raw_s"] for r in records) / passes
    plain_pass = sum(r["raw_s"] for r in plain)
    values = {}
    units = per_layer_units()
    for name, unit in units.items():
        if name.startswith(("probe_", "trace.", "walls.useful_ratio")):
            continue
        values[name] = (loop_counts.get(name, 0) / passes, passes, "per pass")
    screened = loop_counts.get("walls.candidates_screened", 0)
    values["walls.useful_ratio"] = (
        loop_counts.get("walls.witnesses", 0) / screened if screened else 0.0, passes, "witnesses/screened"
    )
    for name in PROBE_COUNTS:
        key = "exactnum.fraction_new" if name == "fraction_new" else f"walls.{name}"
        values[f"probe_disc100_a100.{name}"] = (probe_counts.get(key, 0), 1, "one probe run")
    values["trace.overhead_ratio"] = (traced_pass / plain_pass, passes, "traced pass / untraced pass")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), span))) + "\n")
    extra = {
        "passes": passes,
        "spans": len(tracer.spans),
        "dropped_spans": tracer.dropped_spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_pass_s": plain_pass,
        "traced_pass_s": traced_pass,
    }
    return values, records, units, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tiltwall" / "__init__.py").is_file():
        fail(f"no tiltwall sources under {SRC}; run from the root of a checkout")
    reference_path = HERE / "reference.json"
    if not reference_path.is_file():
        fail(f"missing {reference_path}; record it with perfbench/record.py")
    threads_before = os.environ.pop("TILTWALL_THREADS", None)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    reference = json.loads(reference_path.read_text())
    ops = workloads.build(args.workload, args.seed, reference)
    if args.tiny:
        ops = ops[:5]
    checker = Checker(reference["expected"])
    env = environment(args, threads_before)
    started = time.perf_counter()
    run = traced_run if args.trace else timed_run
    values, records, units, extra = run(args, ops, checker, workloads)
    wall_s = time.perf_counter() - started

    digest = workloads.input_digest(ops)
    print(f"tiltwall benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: {len(ops)} operations per pass, {extra['passes']} passes, input digest {digest}")
    print(f"{'metric':<48} {'value':>16}  {'unit':<6} {'samples':>7}  note")
    for name, (value, samples, note) in values.items():
        print(f"{name:<48} {value:>16.6g}  {units[name]:<6} {samples:>7}  {note}")
    if checker.known_crashes:
        print("known crashes (counted in failed_ratio):")
        for key, code in sorted(checker.known_crashes.items()):
            print(f"  {key} -> {code}")
    for problem in checker.problems:
        print(f"WRONG: {problem}")

    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "trace": args.trace, "tiny": args.tiny,
        "environment": env, "input_digest": digest, "wall_s": wall_s,
        "metrics": {n: {"value": v, "unit": units[n], "samples": s, "note": note}
                    for n, (v, s, note) in values.items()},
        "attempted": checker.attempted, "failed_ratio": checker.failed / checker.attempted,
        "wrong": checker.wrong, "known_crashes": checker.known_crashes, "problems": checker.problems,
        "extra": extra, "operations": records,
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {report_path.relative_to(ROOT)}")

    result = {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.wrong,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _, _) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
