"""Outside-in layer trace of beamctl.

The tracer wraps public functions of beamctl at every module that imported
them (``beamctl.cli.integrate_mild`` and ``beamctl.synthesis.integrate_mild``
both get the wrapper) and restores the originals afterwards.  Each call
records a span: name, start, end, parent span and job id.  The per-step
catalog methods get counters only, attributed to the enclosing span, since
a span per call would cost more than the call.  Spans stay in memory until
the run writes them out.

Nothing here changes what beamctl computes: wrappers pass arguments and
results through untouched, so traced runs must write the same bytes.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

COMMANDS = ("simulate", "gramian", "steer", "approx", "exact", "check")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "attrs")

    def __init__(self, id, name, parent, job, start=0, end=0, attrs=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.job = job
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "job": self.job,
            **self.attrs,
        }


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _main_attrs(tracer, args, kwargs, result):
    return {"command": _arg(args, kwargs, 0, "argv")[0], "exit_code": result}


def _integrate_attrs(tracer, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    u = _arg(args, kwargs, 1, "u")
    attrs = {"sweeps": result.picard_iterations, "n_steps": spec.n_steps}
    if u is not None and id(u) in tracer.switched:
        attrs["tail_steps"] = tracer.switched[id(u)][1]
    return attrs


def _pullback_attrs(tracer, args, kwargs, result):
    # The switch node is the last marked node; the tail runs from it to T.
    tail = result.n_nodes - 1 - max(result.left_values)
    tracer.switched[id(result)] = (result, tail)
    return {"tail_steps": tail}


def simpson_nodes(n, t0, t1, p, step=None) -> int:
    """Node count of `control.mode_gramian`'s composite Simpson rule."""
    control = sys.modules["beamctl.control"]
    length = t1 - t0
    if step is None:
        step = control.default_gramian_step(n, t0, t1, p)
    step = min(step, length / 16.0)
    intervals = max(int(math.ceil(length / step)), 2)
    intervals += intervals % 2
    return intervals + 1


def _mode_gramian_attrs(tracer, args, kwargs, result):
    return {"nodes": simpson_nodes(*args, **kwargs)}


def _exact_attrs(tracer, args, kwargs, result):
    return {"outer_iters": len(result.iterations)}


def _file_attrs(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, function, attribute hook).  The span name is "<module>.<function>"
# without the package prefix.
TRACED = (
    ("cli", "main", _main_attrs),
    ("config", "parse_config", None),
    ("dynamics", "integrate_mild", _integrate_attrs),
    ("control", "build_gramian_set", None),
    ("control", "mode_gramian", _mode_gramian_attrs),
    ("control", "gamma_norm_estimate", None),
    ("control", "minimum_energy_control", None),
    ("control", "integrate_linear", None),
    ("semigroup", "operator_norm_bound", None),
    ("semigroup", "propagator_entries_for", None),
    ("synthesis", "steering_target", None),
    ("synthesis", "exact_fixed_point", _exact_attrs),
    ("synthesis", "contraction_constants", None),
    ("synthesis", "approx_experiment", None),
    ("synthesis", "pullback_control", _pullback_attrs),
    ("reporting", "write_csv", _file_attrs),
    ("reporting", "write_report", _file_attrs),
)

# Per-step source evaluations: counted, never spanned.
COUNTED = (
    ("catalogs", "Nonlinearity", "evaluate"),
    ("catalogs", "Forcing", "__call__"),
)


class Tracer:
    """Span recorder for one traced pass; install() patches, uninstall restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.source_evals: Counter = Counter()
        self.job: str | None = None
        # id of each switched control -> (the control, kept alive so the id
        # is not reused, and its tail length in steps)
        self.switched: dict[int, tuple[object, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else None, self.job)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.attrs.update(hook(self, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn):
        stack, evals = self.stack, self.source_evals

        def counted(*args, **kwargs):
            evals[stack[-1].name if stack else None] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "beamctl" or k.startswith("beamctl.")]
        for mod_name, fn_name, hook in TRACED:
            orig = getattr(sys.modules[f"beamctl.{mod_name}"], fn_name)
            wrapper = self._wrap(orig, f"{mod_name}.{fn_name}", hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in COUNTED:
            cls = getattr(sys.modules[f"beamctl.{mod_name}"], cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._count(orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)
        self.switched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of it covered by its child spans (ns)."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0
        lo = hi = None
        for a, b in sorted((max(c.start, s.start), min(c.end, s.end)) for c in kids[s.id]):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def inconsistent_roots(spans: list[Span], selfs: dict[int, int], root: str = "cli.main") -> list[int]:
    """Root spans whose subtree self times do not sum to the root's duration."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s.id)
    by_id = {s.id: s for s in spans}
    bad = []
    for s in spans:
        if s.name != root:
            continue
        total, todo = 0, [s.id]
        while todo:
            i = todo.pop()
            total += selfs[i]
            todo.extend(kids[i])
        if total != by_id[s.id].end - by_id[s.id].start:
            bad.append(s.id)
    return bad


def _root_command(span: Span, by_id: dict[int, Span]) -> str | None:
    while span.parent is not None:
        span = by_id[span.parent]
    return span.attrs.get("command")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts as counts)."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def calls(name):
        return float(len(named[name]))

    def total_s(name):
        # Outermost spans of the name only, so recursion is not counted twice.
        out = 0
        for s in named[name]:
            p = s.parent
            while p is not None and by_id[p].name != name:
                p = by_id[p].parent
            if p is None:
                out += s.end - s.start
        return out * 1e-9

    def self_s(name):
        return sum(selfs[s.id] for s in named[name]) * 1e-9

    def attr_sum(name, key):
        return float(sum(s.attrs.get(key, 0) for s in named[name]))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["config.parse_config.s"] = total_s("config.parse_config")

    integ = named["dynamics.integrate_mild"]
    sweeps = attr_sum("dynamics.integrate_mild", "sweeps")
    # A call that raised has no attributes; it counts as no work done.
    steps = float(sum(s.attrs.get("sweeps", 0) * s.attrs.get("n_steps", 0) for s in integ))
    m["dynamics.integrate_mild.calls"] = calls("dynamics.integrate_mild")
    m["dynamics.integrate_mild.s"] = total_s("dynamics.integrate_mild")
    m["dynamics.integrate_mild.self_s"] = self_s("dynamics.integrate_mild")
    m["dynamics.picard_sweeps"] = sweeps
    m["dynamics.sweeps_per_integration"] = ratio(sweeps, len(integ))
    m["dynamics.steps"] = steps
    m["dynamics.step_us"] = ratio(self_s("dynamics.integrate_mild") * 1e6, steps)

    m["catalogs.source_evals"] = float(sum(tracer.source_evals.values()))
    m["catalogs.source_evals_per_step"] = ratio(
        tracer.source_evals["dynamics.integrate_mild"], steps
    )

    gram = named["control.build_gramian_set"]
    m["control.build_gramian_set.calls"] = calls("control.build_gramian_set")
    m["control.build_gramian_set.s"] = total_s("control.build_gramian_set")
    m["control.mode_gramian.calls"] = calls("control.mode_gramian")
    m["control.mode_gramian.s"] = total_s("control.mode_gramian")
    m["control.simpson_nodes"] = attr_sum("control.mode_gramian", "nodes")
    m["control.reference_read_ratio"] = ratio(
        sum(_root_command(s, by_id) == "gramian" for s in gram), len(gram)
    )
    for name in ("gamma_norm_estimate", "minimum_energy_control", "integrate_linear"):
        m[f"control.{name}.s"] = total_s(f"control.{name}")

    m["semigroup.operator_norm_bound.s"] = total_s("semigroup.operator_norm_bound")
    m["semigroup.propagator_entries_for.calls"] = calls("semigroup.propagator_entries_for")
    m["semigroup.propagator_entries_for.s"] = total_s("semigroup.propagator_entries_for")

    for name in ("steering_target", "exact_fixed_point", "contraction_constants",
                 "approx_experiment", "pullback_control"):
        m[f"synthesis.{name}.calls"] = calls(f"synthesis.{name}")
    m["synthesis.steering_target.s"] = total_s("synthesis.steering_target")
    m["synthesis.exact_fixed_point.outer_iters"] = attr_sum("synthesis.exact_fixed_point", "outer_iters")
    m["synthesis.exact_fixed_point.self_s"] = self_s("synthesis.exact_fixed_point")
    m["synthesis.contraction_constants.s"] = total_s("synthesis.contraction_constants")
    m["synthesis.approx_experiment.self_s"] = self_s("synthesis.approx_experiment")
    m["synthesis.pullback_control.s"] = total_s("synthesis.pullback_control")
    switched = [s for s in integ if "tail_steps" in s.attrs]
    m["synthesis.approx.tail_ratio"] = ratio(
        sum(s.attrs["tail_steps"] for s in switched),
        sum(s.attrs.get("sweeps", 0) * s.attrs["n_steps"] for s in switched),
    )

    m["reporting.write_csv.s"] = total_s("reporting.write_csv")
    m["reporting.write_csv.bytes"] = attr_sum("reporting.write_csv", "bytes")
    m["reporting.write_report.s"] = total_s("reporting.write_report")

    m["cli.main.self_s"] = self_s("cli.main")
    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = sum(
            (s.end - s.start) * 1e-9 for s in named["cli.main"] if s.attrs.get("command") == cmd
        )
    return m


def by_command(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Integration, sweep and outer-iteration counts split by CLI command."""
    by_id = {s.id: s for s in tracer.spans}
    out: dict[str, dict[str, float]] = {}
    for s in tracer.spans:
        counts = out.setdefault(
            _root_command(s, by_id), {"jobs": 0, "integrations": 0, "sweeps": 0, "outer_iters": 0}
        )
        if s.name == "cli.main":
            counts["jobs"] += 1
        elif s.name == "dynamics.integrate_mild":
            counts["integrations"] += 1
            counts["sweeps"] += s.attrs.get("sweeps", 0)
        elif s.name == "synthesis.exact_fixed_point":
            counts["outer_iters"] += s.attrs.get("outer_iters", 0)
    return out
