"""Record the reference outputs that perfbench/run.py checks every operation against.

    python3 perfbench/record.py

Runs every input any seed can draw (all slots, all twists, all generated
trees, every CLI argv, the probes and ``check``) once, untraced, and writes
``perfbench/reference.json``: the generated trees and, per input key, the
digest of its walls JSON, function outputs or CLI exit code and stdout.
Re-record only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run


def main() -> int:
    os.environ.pop("TILTWALL_THREADS", None)
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    import workloads

    start = time.perf_counter()
    expected = {}
    queries = workloads.walls_pool() + [workloads.probe_query(name) for name in workloads.PROBES]
    ops = [workloads.walls_op(q) for q in queries]
    trees = workloads.tree_pool()
    ops += [workloads.tree_op(entry) for entry in trees]
    ops += [workloads.cli_op(argv, malformed) for argv, malformed in workloads.cli_pool()]
    for op in ops:
        out = op.run()
        if op.extra_check is not None:
            problem = op.extra_check(out)
            if problem:
                raise SystemExit(f"{op.key}: {problem}")
        expected[op.key] = op.digest(out)
    reference = {
        "recorded_with": {
            "python": run.platform.python_version(),
            "commit": run.commit(),
            "source_sha256": run.source_digest(),
        },
        "trees": trees,
        "expected": expected,
    }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} outputs in {time.perf_counter() - start:.1f} s to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
