"""Self-check of the benchmark; run from the root of a checkout:

    python3 perfbench/selfcheck.py

* A tiny run of each workload, untraced and traced, prints every metric
  named in BENCHMARK.json with its unit and reports ``correct``.
* The same seed gives the same input digest twice; another seed gives a
  different one.
* In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits with a non-zero code and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = spec["command"] + ["--workload", name, "--seed", "7", "--seconds", "1",
                                      "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            result = last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: outputs differ from the reference")
            table = proc.stdout.strip().rsplit("\n", 1)[0]
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{name} trace={trace}: metric {metric['name']} missing or wrong unit: {got}")
                elif metric["name"] not in table:
                    problems.append(f"{name} trace={trace}: {metric['name']} not in the printed table")
            extra = set(result["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                problems.append(f"{name} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{name} trace={trace}: {len(result['metrics'])} metrics, correct={result['correct']}")

    sys.path.insert(0, str(run.SRC))
    import workloads

    reference = json.loads((run.HERE / "reference.json").read_text())
    for name in workloads.WORKLOADS:
        first = workloads.input_digest(workloads.build(name, 3, reference))
        again = workloads.input_digest(workloads.build(name, 3, reference))
        other = workloads.input_digest(workloads.build(name, 4, reference))
        if first != again:
            problems.append(f"{name}: seed 3 gave two input digests")
        if first == other:
            problems.append(f"{name}: seeds 3 and 4 gave the same inputs")
        print(f"{name}: seed 3 input digest {first[:16]} twice, seed 4 {other[:16]}")

    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    shutil.copytree(run.HERE / "data", bare / "perfbench" / "data")
    argv = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print(f"without sources: exit {proc.returncode}, {proc.stderr.strip()}")

    for problem in problems:
        print("FAIL: " + problem)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
