"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces the public functions of each ``spirallab``
module with timing wrappers.  A function is rebound in every
``spirallab`` module that holds it by name (``cli`` imports
``member_from_measure``, ``proof_trace``, ``check_*``, ``search`` and the
diff functions; ``extremal`` imports ``member_from_measure`` and the
diffs), and ``Series``/``FunctionSeries`` methods are patched on their
class.  The one private name wrapped is ``extremal._objective``, the
factory of the search objective, so that each objective evaluation is a
span of its own.

Spans are kept in memory as (name, start, end, parent index) and reduced
to per-name calls, total and self time when the run ends; a span's self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (module, attribute) -> span name.  Attributes on a class are "Class.method".
TARGETS = {
    ("spirallab.series", "Series.exp_zero"): "series.exp_zero",
    ("spirallab.series", "Series.div"): "series.div",
    ("spirallab.series", "Series.eval_circle"): "series.eval_circle",
    ("spirallab.classes", "member_from_measure"): "classes.member_from_measure",
    ("spirallab.classes", "herglotz"): "classes.herglotz",
    ("spirallab.membership", "check_spirallike"): "membership.check_spirallike",
    ("spirallab.membership", "check_convex"): "membership.check_convex",
    ("spirallab.inequalities", "proof_trace"): "inequalities.proof_trace",
    ("spirallab.inequalities", "recover_c"): "inequalities.recover_c",
    ("spirallab.inequalities", "psi_max"): "inequalities.psi_max",
    ("spirallab.inequalities", "successive_diff"): "inequalities.successive_diff",
    ("spirallab.inequalities", "one_sided_diff"): "inequalities.one_sided_diff",
    ("spirallab.extremal", "search"): "extremal.search",
    ("spirallab.cli", "main"): "cli.main",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._open = []  # indices of spans not yet ended
        self.counters = defaultdict(int)
        # id(member) -> [member, coefficients built, coefficients read]; holding
        # the member keeps its id from being reused by a later one
        self._members = {}
        self._restore = []

    # ------------------------------------------------------------------
    # spans

    def _wrap(self, name, fn, on_return=None, on_raise=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc, args, kwargs)
                raise
            finally:
                spans[index][2] = clock()
                open_.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span_stats(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[i]
        return dict(stats)

    # ------------------------------------------------------------------
    # counters recorded at the same boundaries

    def _member_built(self, f, args, kwargs):
        self._members[id(f)] = [f, f.order + 1, 0]

    def _member_read(self, f, count):
        entry = self._members.get(id(f))
        if entry is not None and count > entry[2]:
            entry[2] = count

    def _series_macs(self, key):
        def count(result, args, kwargs):
            n = result.order
            self.counters[key] += n * (n + 1) // 2

        return count

    def _eval_points(self, result, args, kwargs):
        self.counters["series.eval_circle.points"] += result.size

    def _check_done(self, report, args, kwargs):
        f = args[0]
        self._member_read(f, f.order + 1)
        self.counters["membership.grid_points"] += len(report.grid.radii) * report.grid.m
        if not report.passed:
            self.counters["membership.failed"] += 1

    def _check_raised(self, exc, args, kwargs):
        from spirallab.membership import CriticalPointOnGrid, ZeroOnGrid

        if isinstance(exc, (ZeroOnGrid, CriticalPointOnGrid)):
            self.counters["membership.failed"] += 1

    def _recover_use(self, c, args, kwargs):
        f, count = args[0], args[2] if len(args) > 2 else kwargs["count"]
        self.counters["inequalities.recover_c.count"] += count
        self.counters["inequalities.recover_c.computed"] += f.order - 1

    def _trace_raised(self, exc, args, kwargs):
        from spirallab.inequalities import ChainInequalityViolation

        if isinstance(exc, ChainInequalityViolation):
            self.counters["inequalities.chain_violations"] += 1

    def _search_done(self, result, args, kwargs):
        self.counters["extremal.budget_exhausted"] += int(result.budget_exhausted)

    # ------------------------------------------------------------------
    # installation

    def _hooks(self):
        return {
            "series.exp_zero": (self._series_macs("series.exp_zero.macs"), None),
            "series.div": (self._series_macs("series.div.macs"), None),
            "series.eval_circle": (self._eval_points, None),
            "classes.member_from_measure": (self._member_built, None),
            "membership.check_spirallike": (self._check_done, self._check_raised),
            "membership.check_convex": (self._check_done, self._check_raised),
            "inequalities.recover_c": (self._recover_use, None),
            "inequalities.proof_trace": (None, self._trace_raised),
            "extremal.search": (self._search_done, None),
        }

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> list:
        """Wrap every target; returns the targets that no longer exist."""
        import spirallab.cli  # noqa: F401  (imports every layer)

        hooks = self._hooks()
        package = [m for name, m in sys.modules.items() if name.startswith("spirallab")]
        missing = []
        for (module_name, attr), span in TARGETS.items():
            module = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, original, *hooks.get(span, (None, None)))
            if path:
                self._patch(owner, leaf, wrapper)  # a method: patch it on the class
                continue
            for holder in package:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapper)

        extremal = sys.modules["spirallab.extremal"]
        factory = getattr(extremal, "_objective", None)
        if factory is None:
            missing.append("spirallab.extremal._objective")
        else:

            def objective(*args, **kwargs):
                return self._wrap("extremal.objective", factory(*args, **kwargs))

            self._patch(extremal, "_objective", objective)

        from spirallab.series import FunctionSeries

        coefficient = FunctionSeries.a

        def a(f, n):
            self._member_read(f, n + 1)
            return coefficient(f, n)

        self._patch(FunctionSeries, "a", a)
        return missing

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self) -> dict:
        """Every per-layer metric except ``cli.*`` and ``trace.overhead_frac``."""
        stats = self.span_stats()
        c = self.counters

        def calls(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

        def self_s(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

        built = sum(e[1] for e in self._members.values())
        read = sum(e[2] for e in self._members.values())
        objective_calls = calls("extremal.objective")
        objective_total = stats.get("extremal.objective", (0, 0.0, 0.0))[1]
        recovered = c["inequalities.recover_c.computed"]
        checks = ("membership.check_spirallike", "membership.check_convex")
        diffs = ("inequalities.successive_diff", "inequalities.one_sided_diff")
        return {
            "series.exp_zero.calls": calls("series.exp_zero"),
            "series.exp_zero.self_s": self_s("series.exp_zero"),
            "series.exp_zero.macs": c["series.exp_zero.macs"],
            "series.div.calls": calls("series.div"),
            "series.div.self_s": self_s("series.div"),
            "series.div.macs": c["series.div.macs"],
            "series.eval_circle.calls": calls("series.eval_circle"),
            "series.eval_circle.self_s": self_s("series.eval_circle"),
            "series.eval_circle.points": c["series.eval_circle.points"],
            "classes.member_from_measure.calls": calls("classes.member_from_measure"),
            "classes.member_from_measure.self_s": self_s("classes.member_from_measure"),
            "classes.herglotz.self_s": self_s("classes.herglotz"),
            "classes.coeffs_built": built,
            "classes.coeff_use_ratio": read / built if built else 0.0,
            "membership.check.calls": calls(*checks),
            "membership.check.self_s": self_s(*checks),
            "membership.grid_points": c["membership.grid_points"],
            "membership.failed": c["membership.failed"],
            "inequalities.proof_trace.calls": calls("inequalities.proof_trace"),
            "inequalities.proof_trace.self_s": self_s("inequalities.proof_trace"),
            "inequalities.recover_c.calls": calls("inequalities.recover_c"),
            "inequalities.recover_c.self_s": self_s("inequalities.recover_c"),
            "inequalities.recover_c.use_ratio": (
                c["inequalities.recover_c.count"] / recovered if recovered else 0.0
            ),
            "inequalities.psi_max.calls": calls("inequalities.psi_max"),
            "inequalities.psi_max.self_s": self_s("inequalities.psi_max"),
            "inequalities.diff.calls": calls(*diffs),
            "inequalities.diff.self_s": self_s(*diffs),
            "inequalities.chain_violations": c["inequalities.chain_violations"],
            "extremal.search.self_s": self_s("extremal.search"),
            "extremal.objective.calls": objective_calls,
            "extremal.objective_us": (
                1e6 * objective_total / objective_calls if objective_calls else 0.0
            ),
            "extremal.budget_exhausted": c["extremal.budget_exhausted"],
            "cli.main.self_s": self_s("cli.main"),
        }
