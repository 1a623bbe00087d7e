"""Span tracing around the public functions of each paraweb module.

Everything here lives in the benchmark: ``Tracer.install`` replaces the
public functions and methods of each layer by wrappers that record a
span (name, layer, start, end, parent span, problem index) and count
calls.  Spans stay in memory and are written when the batch ends.

Which calls become spans:

* ``parser``, ``jet``, ``invariants``, ``webs``, ``zerotest``, ``report``
  and ``cli``: every call of a public function or method, including
  calls from inside the same module, so call counts such as "null_curve
  runs 4x per k = 3 report" are exact.  One-line accessors are left
  alone (``ACCESSORS``).
* ``expr``: only calls of ``differentiate`` and ``eval_numeric`` made
  from other modules.  The kernel recurses into itself; those inner
  calls are the work of the outer call, not new boundary crossings.  The
  constructors (``add``, ``mul``, ...) are not wrapped: their time is
  self time of the layer that calls them.
* ``render``: ``expr.to_string`` called from ``report``.

A layer's self time is the time of its spans minus the part covered by
their child spans.  A function's inclusive time counts outermost calls
only, so recursion is not counted twice.  A problem's spans start with
its ``ProblemSpec.from_dict``; spans outside any problem (``cli.main``,
``dumps_report``) have problem index -1.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("expr", "parser", "zerotest", "jet", "invariants", "webs", "report", "cli")
LAYERS = ("parser", "expr", "zerotest", "jet", "invariants", "webs", "render", "report", "cli")
# Wrapping these would time the wrapper, not the layer.
ACCESSORS = frozenset({"comp", "a", "a_i", "a_hierarchy", "triples", "dw", "dw2", "v", "is_zero"})

# Inclusive-time metrics: metric name -> functions whose outermost calls it sums.
TIMED = {
    "invariants.chain_s": ("invariants.curvature_chain",),
    "invariants.residuals_s": ("invariants.wunschmann_residuals", "invariants.cartan_residuals"),
    "webs.ricci_s": ("webs.ricci_null_residuals",),
    "webs.connection_s": ("webs.canonical_connection",),
    "webs.schouten_s": ("webs.schouten_residuals",),
    "webs.zakharevich_s": ("webs.zakharevich_verdict",),
    "webs.hirota_s": ("webs.hirota_residuals",),
    "webs.lax_s": ("webs.lax_commutator_residuals",),
    "webs.pencil_s": ("webs.pencil_affinity_exact",),
    "webs.null_curve_s": ("webs.null_curve",),
    "zerotest.s": ("zerotest.ZeroTester.verdict_stats",),
    "parser.s": ("parser.parse_expr",),
    "expr.diff.s": ("expr.differentiate",),
    "report.render_s": ("render.to_string",),
    "report.dumps_s": ("report.dumps_report",),
}
# Call-count metrics: metric name -> function.
COUNTED = {
    "invariants.chain.calls": "invariants.curvature_chain",
    "webs.hirota_residuals.calls": "webs.hirota_residuals",
    "webs.canonical_connection.calls": "webs.canonical_connection",
    "webs.null_curve.calls": "webs.null_curve",
    "webs.omega_coefficient_forms.calls": "webs.omega_coefficient_forms",
    "zerotest.calls": "zerotest.ZeroTester.verdict_stats",
    "parser.calls": "parser.parse_expr",
    "expr.diff.calls": "expr.differentiate",
    "expr.eval.calls": "expr.eval_numeric",
    "zerotest.evals": "zerotest->expr.eval_numeric",
    "report.render_calls": "render.to_string",
}

OUTSIDE = -1


def paraweb_modules() -> dict:
    return {n: sys.modules[f"paraweb.{n}"] for n in MODULES}


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.problem = OUTSIDE
        self.calls: dict[int, Counter] = defaultdict(Counter)
        self.inclusive: dict[int, Counter] = defaultdict(Counter)
        self.depth: Counter = Counter()
        self.layer_of: dict[str, str] = {}
        self.intern_at_start: list[int] = []
        self.intern_at_batch_end = None
        self.diff_hits: Counter = Counter()
        self.zero_seen: set = set()
        self.zero_distinct: Counter = Counter()
        self.zero_samples: Counter = Counter()
        self.zero_indeterminate: Counter = Counter()
        self.rendered: dict[int, list] = defaultdict(list)
        self.render_chars: Counter = Counter()
        self.residual_exprs: dict[int, list] = defaultdict(list)
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, count_as: tuple[str, ...] = ()):
        """``fn`` recording a span named ``name``; the call also counts
        under each name in ``count_as``."""
        spans, stack, depth, tracer = self.spans, self.stack, self.depth, self
        before, after = self._hooks(name)
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[name] += 1
            problem = tracer.problem
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                spans[idx] = (name, layer, t0, t1, parent, problem)
                calls = tracer.calls[problem]
                calls[name] += 1
                for alias in count_as:
                    calls[alias] += 1
                if depth[name] == 0:
                    tracer.inclusive[problem][name] += t1 - t0
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules: dict):
        """Wrap the public callables of ``modules`` (short name -> module)."""
        expr = modules["expr"]
        self._intern, self._rat_intern = expr._INTERN, expr._RAT_INTERN
        self._diff_cache = expr._DIFF_CACHE
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            if short == "expr":
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, f"{short}.{attr}", short)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(short, obj)
        # Each module holds its own reference to a function it imported by
        # name, so every reference is replaced.  expr functions are wrapped
        # only where other modules refer to them.
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
                elif short == "expr" or obj is not getattr(expr, attr, None):
                    continue
                elif attr == "differentiate":
                    self._patch(mod, attr, self.wrap(obj, "expr.differentiate", "expr"))
                elif attr == "eval_numeric":
                    self._patch(mod, attr, self.wrap(obj, f"{short}->expr.eval_numeric", "expr",
                                                     count_as=("expr.eval_numeric",)))
                elif attr == "to_string" and short == "report":
                    self._patch(mod, attr, self.wrap(obj, "render.to_string", "render"))

    def _wrap_methods(self, short: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or attr in ACCESSORS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(raw.__func__, name, short)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(raw, name, short))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def intern_size(self) -> int:
        return len(self._intern) + len(self._rat_intern)

    # -- hooks ------------------------------------------------------------

    def _hooks(self, name: str):
        """(before, after) callbacks for the function ``name``."""
        return {
            "report.ProblemSpec.from_dict": (self._start_problem, None),
            "report.analyze_batch": (None, self._end_batch),
            "expr.differentiate": (self._diff_lookup, None),
            "invariants.wunschmann_residuals": (None, self._after_residuals),
            "invariants.cartan_residuals": (None, self._after_residuals),
            "render.to_string": (None, self._after_render),
            "zerotest.ZeroTester.verdict_stats": (None, self._after_zerotest),
        }.get(name, (None, None))

    def _start_problem(self, args):
        self.problem = len(self.intern_at_start)
        self.intern_at_start.append(self.intern_size())

    def _end_batch(self, args, result):
        self.problem = OUTSIDE
        self.intern_at_batch_end = self.intern_size()

    def _diff_lookup(self, args):
        e, v = args
        self.diff_hits[self.problem, (e.uid, v) in self._diff_cache] += 1

    def _after_residuals(self, args, result):
        self.residual_exprs[self.problem].extend(r.expr for r in result)

    def _after_render(self, args, result):
        self.rendered[self.problem].append(args[0])
        self.render_chars[self.problem] += len(result)

    def _after_zerotest(self, args, result):
        tester, e = args[0], args[1]
        if (e.uid, tester) not in self.zero_seen:
            self.zero_seen.add((e.uid, tester))
            self.zero_distinct[self.problem] += 1
        verdict, samples = result
        self.zero_samples[self.problem] += samples
        if verdict.value == "indeterminate":
            self.zero_indeterminate[self.problem] += 1

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[int, Counter]:
        """Self time per (problem, layer)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        out: dict[int, Counter] = defaultdict(Counter)
        for idx, (_, layer, t0, t1, _, problem) in enumerate(self.spans):
            out[problem][layer] += t1 - t0 - child[idx]
        return out

    def metrics(self, problems, selfs: dict[int, Counter]) -> dict[str, float]:
        """Per-layer metrics summed over ``problems`` (indices, -1 included)."""
        calls, incl = Counter(), Counter()
        for p in problems:
            calls.update(self.calls[p])
            incl.update(self.inclusive[p])
        out: dict[str, float] = {m: sum(incl[n] for n in names) for m, names in TIMED.items()}
        out.update({m: calls[n] for m, n in COUNTED.items()})
        out["jet.calls"] = sum(n for name, n in calls.items() if self.layer_of.get(name) == "jet")
        for layer in ("jet", "report", "cli"):
            out[f"{layer}.self_s"] = sum(selfs[p][layer] for p in problems)
        hits = sum(self.diff_hits[p, True] for p in problems)
        out["expr.diff.hit_ratio"] = hits / max(1, out["expr.diff.calls"])
        out["zerotest.distinct"] = sum(self.zero_distinct[p] for p in problems)
        out["zerotest.distinct_ratio"] = out["zerotest.distinct"] / max(1, out["zerotest.calls"])
        out["zerotest.samples"] = sum(self.zero_samples[p] for p in problems)
        out["zerotest.sample_yield"] = out["zerotest.samples"] / max(1, out["zerotest.evals"])
        out["zerotest.indeterminate"] = sum(self.zero_indeterminate[p] for p in problems)
        out["report.render_bytes"] = sum(self.render_chars[p] for p in problems)
        nodes = sum(dag_nodes(self.rendered[p]) for p in problems)
        out["report.bytes_per_dag_node"] = out["report.render_bytes"] / max(1, nodes)
        out["invariants.residual_dag_nodes"] = sum(dag_nodes(self.residual_exprs[p]) for p in problems)
        return out

    def batch_metrics(self, intern_start: int, intern_end: int,
                      diff_cache_growth: int) -> tuple[dict[str, float], list[dict]]:
        """Per-layer metrics of the whole batch, and one row per problem."""
        selfs = self.self_times()
        ends = self.intern_at_start[1:] + [self.intern_at_batch_end or intern_end]
        rows = []
        for p, (start, end) in enumerate(zip(self.intern_at_start, ends)):
            row = self.metrics([p], selfs)
            row["expr.intern_growth"] = end - start
            rows.append({
                "problem": p,
                "wall_s": self.inclusive[p]["report.ProblemSpec.from_dict"]
                + self.inclusive[p]["report.analyze_problem"],
                "self_s": {layer: selfs[p][layer] for layer in LAYERS if selfs[p][layer]},
                "metrics": row,
                "calls": dict(sorted(self.calls[p].items())),
            })
        metrics = self.metrics([OUTSIDE] + list(range(len(rows))), selfs)
        metrics["expr.intern_growth"] = intern_end - intern_start
        metrics["expr.diff_cache_growth"] = diff_cache_growth
        return metrics, rows

    def write_spans(self, path):
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, layer, t0, t1, parent, problem) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "parent": parent, "problem": problem, "name": name,
                                     "layer": layer, "start": t0 - base, "end": t1 - base}) + "\n")


def dag_nodes(exprs) -> int:
    """Distinct nodes of the shared DAG under ``exprs``."""
    seen: set[int] = set()
    todo = list(exprs)
    while todo:
        e = todo.pop()
        if e.uid not in seen:
            seen.add(e.uid)
            todo.extend(e.children)
    return len(seen)
