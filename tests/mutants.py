"""Mutation ledger: one-line mutants of `src/tiltwall` that the tests must kill.

Each entry names a module, an exact text of it, the text that replaces it,
the check or proof the change breaks, and the test file expected to kill it.
The file is not collected by pytest (its name does not start with "test_").
Run it from anywhere:

    python tests/mutants.py

For each mutant it copies `src/` to a temporary directory, applies the
mutant there, and runs the named test file with `-x` against the copy.  A
mutant is killed when pytest reports a failing test.  The runner prints the
outcome and wall time of each mutant and exits 1 if any mutant survives or
any entry no longer matches its module.
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
        old="if not (rel.relation is Nesting.NESTED and rel.inner == node.wall):",
        new="if not rel.relation is Nesting.NESTED:",
        breaks="a node's wall lies strictly inside its parent's wall, not around it",
        killed_by="tests/test_hntree.py",
    ),
    Mutant(
        name="well-ordering check disabled",
        module="hntree",
        old="if groups and x < groups[-1][0]:",
        new="if False:",
        breaks="leaf intercepts are non-increasing, so the leaves of a breakpoint "
        "are consecutive (continuity proof of `ValidationReport.chd0`)",
        killed_by="tests/test_hntree.py",
    ),
    Mutant(
        name="rank-0 leaf of degree -1 accepted",
        module="hntree",
        old="if node.cls.v0 == 0 and node.cls.v1 < 0:",
        new="if node.cls.v0 == 0 and node.cls.v1 < -1:",
        breaks="a rank-0 leaf has positive degree, so its jump v1 is sqrt(disc) "
        "(jump proof of `ValidationReport.breakpoints`)",
        killed_by="tests/test_cli.py",
    ),
    Mutant(
        name="discriminant-sum check deleted",
        module="hntree",
        old="if not child_disc < disc:",
        new="if False:",
        breaks="the children's discriminants sum to less than the node's",
        killed_by="tests/test_cli.py",
    ),
    Mutant(
        name="piece rule takes the right piece at a breakpoint",
        module="hntree",
        old="from bisect import bisect_left\n",
        new="from bisect import bisect_right as bisect_left\n",
        breaks="x takes pieces[i] for the first i with x <= breakpoints[i] "
        "(`PiecewiseQuadratic.eval_at`)",
        killed_by="tests/test_hntree.py",
    ),
    Mutant(
        name="negative-rank root accepted",
        module="hntree",
        old="if tree.cls.v0 < 0:",
        new="if False:",
        breaks="a root of negative rank is refused: its chd0 would end in a "
        "piece with negative leading coefficient",
        killed_by="tests/test_cli.py",
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
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.killed_by],
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
