"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces module-level functions of ``tiltwall`` (every module
binding of the same function object, so ``from .walls import x`` copies are
covered) and a few methods with wrappers that keep, per layer:

* calls and self time (time in the call minus time in traced callees);
* spans ``(id, name, start, end, parent_id, op_id)`` for the coarse entry
  points, kept in memory and written out by the caller at the end of the run;
* outcome counters (candidates screened, w0 window, witnesses, Fraction and
  quadratic-irrational constructions).

Hot leaf functions (``lattice.discriminant``, ``walls.wall_between``,
``exactnum.squarefree_decompose``) get calls and self time but no spans, so
memory stays bounded.  The wrappers only count while ``active`` is set, which
the runner does around each operation, so the benchmark's own checking code
is never counted.  Single-threaded use only: the call stack is one list.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from fractions import Fraction

MAX_SPANS = 200_000

RADICAND_BUCKETS = ((10**3, "lt1e3"), (10**6, "1e3-1e6"), (10**9, "1e6-1e9"))


def radicand_bucket(n: int) -> str:
    """Bucket name of a radicand: <1e3, 1e3-1e6, 1e6-1e9 or >=1e9."""
    for limit, name in RADICAND_BUCKETS:
        if n < limit:
            return name
    return "ge1e9"


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # frames: [span_id, child_seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _timed(self, name, fn, args, kwargs, span):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = None
        if span:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if span:
                if len(self.spans) < MAX_SPANS:
                    parent_id = self._parent_span_id()
                    self.spans.append((span_id, name, start, end, parent_id, self.op_id))
                else:
                    self.dropped_spans += 1

    def _parent_span_id(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def op_span(self, name, fn):
        """Run fn() as the root span of one benchmark operation."""
        return self._timed(name, fn, (), {}, True)

    # -- installation -------------------------------------------------------

    def _replace(self, fn, wrapper):
        """Rebind every tiltwall module attribute that is fn to wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tiltwall" or mod_name.startswith("tiltwall.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _set_attr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _layer(self, name, fn, span=True, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer._timed(name, fn, args, kwargs, span)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        from tiltwall import catalog, cli, exactnum, hntree, lattice, svgplot, walls

        counts = self.counts
        tracer = self

        def count_candidates(result):
            counts["walls.walls"] += len(result)
            counts["walls.witnesses"] += sum(len(c.witnesses) for c in result)

        layers = [
            ("walls.enumerate_candidates", walls.enumerate_candidates, True, count_candidates),
            ("walls.nesting", walls.nesting, True, None),
            ("walls.wall_between", walls.wall_between, False, None),
            ("lattice.discriminant", lattice.discriminant, False, None),
            ("hntree.validate_tree", hntree.validate_tree, True, None),
            ("hntree.assemble_chd0", hntree.assemble_chd0, True, None),
            ("hntree.assemble_chd1", hntree.assemble_chd1, True, None),
            ("hntree.classify_breakpoints", hntree.classify_breakpoints, True, None),
            ("hntree.hn_factors_at", hntree.hn_factors_at, True, None),
            ("hntree.tree_from_json", hntree.tree_from_json, True, None),
            ("svgplot.render_walls_svg", svgplot.render_walls_svg, True, None),
            ("svgplot.render_function_svg", svgplot.render_function_svg, True, None),
            ("catalog.load_scenario", catalog.load_scenario, True, None),
            ("catalog.list_scenarios", catalog.list_scenarios, True, None),
            ("cli.main", cli.main, True, None),
        ]
        for name, fn, span, after in layers:
            self._replace(fn, self._layer(name, fn, span, after))

        pq = hntree.PiecewiseQuadratic
        self._set_attr(pq, "eval_at", self._layer("hntree.eval_at", pq.eval_at, True))
        self._set_attr(
            pq, "check_nonnegative",
            self._layer("hntree.check_nonnegative", pq.check_nonnegative, True),
        )

        # walls internals: outcome counters only (no timing on the hot path)
        screen = walls._screen_candidate

        def counted_screen(*args):
            if tracer.active:
                counts["walls.candidates_screened"] += 1
            return screen(*args)

        self._set_attr(walls, "_screen_candidate", counted_screen)

        w0_bound = walls._w0_bound

        def counted_w0_bound(*args):
            bound = w0_bound(*args)
            if tracer.active:
                counts["walls.w0_window"] += bound
            return bound

        self._set_attr(walls, "_w0_bound", counted_w0_bound)

        # exact layer: squarefree decomposition timed per radicand bucket
        decompose = exactnum.squarefree_decompose

        def traced_decompose(n):
            if not tracer.active:
                return decompose(n)
            return tracer._timed(
                "exactnum.squarefree_decompose." + radicand_bucket(n), decompose, (n,), {}, False
            )

        self._replace(decompose, traced_decompose)

        qi = exactnum.QuadraticIrrational
        qi_init = qi.__init__

        def counted_qi_init(self_, *args, **kwargs):
            if tracer.active:
                counts["exactnum.qi_new"] += 1
            qi_init(self_, *args, **kwargs)

        self._set_attr(qi, "__init__", counted_qi_init)

        frac_new = Fraction.__dict__["__new__"].__func__

        def counted_fraction_new(cls, *args, **kwargs):
            if tracer.active:
                counts["exactnum.fraction_new"] += 1
            return frac_new(cls, *args, **kwargs)

        self._set_attr(Fraction, "__new__", staticmethod(counted_fraction_new))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> Counter:
        """All counters, calls and self times as one flat Counter."""
        flat = Counter(self.counts)
        for name, n in self.calls.items():
            flat[name + ".calls"] += n
        for name, s in self.self_s.items():
            flat[name + ".self_s"] += s
        return flat
