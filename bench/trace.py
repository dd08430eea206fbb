"""Spans around the calls into each layer, and the per-layer metrics
computed from them.

The traced run installs one wrapper per entry of :data:`LAYERS`. Each
wrapper replaces the name the caller looks up: a module-level function
the caller imported (``repro.core.design_time.prune_model``) or a method
on its class (``ExecutionPlan.run``). The compiled policy table rebinds
``select`` on the manager instance, so that wrapper goes on right after
``compile_policy_table`` returns. :meth:`Tracer.restore` puts every
original back.

A span is ``[name, start, end, parent, unit, n]``: wall-clock bounds
from :func:`time.perf_counter`, the index of the enclosing span (-1 at
the root), the unit of work it belongs to (a design point or a run
seed, inherited by child spans) and a work count (images, samples,
requests) for the rate metrics. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from . import stats

__all__ = ["Tracer", "LAYERS", "install_layers", "self_times", "Profile",
           "layer_value", "DERIVED"]

_NO_ATTR = object()


class Tracer:
    """In-memory spans plus the attribute patches that record them."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        # (owner, attr, original raw attribute or _NO_ATTR), in patch order
        self._patches: list[list] = []
        self._patched: dict = {}  # (id(owner), attr) -> patch record

    # -- spans ----------------------------------------------------------
    def begin(self, name: str, unit=None) -> int:
        parent = self._open[-1] if self._open else -1
        if unit is None and parent >= 0:
            unit = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, unit, 0])
        self._open.append(index)
        return index

    def end(self, index: int, n: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = n
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        self._open.pop()

    # -- patches --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, unit=None, count=None,
             after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``unit(args)`` names the unit of work a root span starts,
        ``count(args, result)`` gives the span's work count and
        ``after(args, result)`` runs once the call returned.
        """
        key = (id(owner), attr)
        raw = vars(owner).get(attr, _NO_ATTR)
        record = self._patched.get(key)
        if record is None:
            record = [owner, attr, raw]
            self._patches.append(record)
            self._patched[key] = record
        else:
            # The program rebound the attribute over our wrapper (a
            # recompiled policy table): restore must give back the new
            # binding, not the one first wrapped.
            record[2] = raw
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name, unit(args) if unit else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index, count(args, result) if count else 0)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every attribute this tracer patched, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _NO_ATTR:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patched.clear()


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------
def _point_unit(args):
    ctx, rate = args[1], args[2]
    return f"{ctx.label} @ {rate:g}"


def _fit_samples(args, result):
    trainer, images = args[0], args[1]
    return len(images) * trainer.config.epochs


def _batch_images(args, result):
    return len(args[1])


def _run_requests(args, result):
    return result.total_requests


def _served_fast(args, result):
    return 0 if result is None else 1


#: (module, attribute path, span name, unit, count) of every wrapper.
LAYERS = (
    ("repro.core.design_time", "LibraryGenerator.generate",
     "core.generate", None, None),
    ("repro.core.design_time", "LibraryGenerator._characterize",
     "core.point", _point_unit, None),
    ("repro.core.design_time", "make_dataset", "data.make_dataset",
     None, None),
    ("repro.nn.trainer", "Trainer.fit", "nn.Trainer.fit", None,
     _fit_samples),
    ("repro.core.design_time", "cascade_sweep", "nn.cascade_sweep",
     None, None),
    ("repro.core.design_time", "prune_model", "pruning.prune_model",
     None, None),
    ("repro.core.design_time", "export_model", "ir.export_model",
     None, None),
    ("repro.core.design_time", "streamline", "ir.streamline", None, None),
    ("repro.ir.graph", "IRGraph.compile", "ir.compile", None, None),
    # ``forward`` is a class-level alias of ``run``: both are looked up.
    ("repro.ir.engine", "ExecutionPlan.run", "ir.ExecutionPlan.run",
     None, _batch_images),
    ("repro.ir.engine", "ExecutionPlan.forward", "ir.ExecutionPlan.run",
     None, _batch_images),
    ("repro.core.design_time", "compile_accelerator",
     "finn.compile_accelerator", None, None),
    ("repro.core.pointcache", "PointCache.put", "core.PointCache.put",
     None, None),
    ("repro.core.checkpoint", "SweepManifest.save",
     "core.SweepManifest.save", None, None),
    ("repro.edge.server", "EdgeServerSimulator.run", "edge.server_run",
     lambda args: f"seed {args[0].seed}", _run_requests),
    ("repro.edge.fastsim", "run_fast", "edge.run_fast", None,
     _served_fast),
    ("repro.edge.server", "EdgeServerSimulator._run_event", "edge.run",
     None, None),
    ("repro.edge.server", "EdgeServerSimulator._arrival_times",
     "edge.arrival_times", None, None),
    ("repro.runtime.monitor", "WorkloadMonitor.observe_many",
     "runtime.observe_many", None, None),
    ("repro.runtime.manager", "RuntimeManager.select", "runtime.select",
     None, None),
    ("repro.runtime.manager", "RuntimeManager.select_at",
     "runtime.select", None, None),
    ("repro.runtime.baselines", "FINNStatic.select", "runtime.select",
     None, None),
    ("repro.runtime.manager", "RuntimeManager.compile_policy_table",
     "runtime.compile_policy_table", None, None),
    ("repro.fleet.cluster", "simulate_fleet", "fleet.simulate_fleet",
     None, None),
    ("repro.fleet.coordinator", "ReconfigCoordinator.schedule",
     "fleet.schedule", None, None),
    ("repro.fleet.router", "WorkloadRouter.assign", "fleet.assign",
     None, None),
    ("repro.fleet.router", "TenantSpec.arrival_times",
     "fleet.tenant_arrivals", None, None),
    ("repro.fleet.cluster", "plan_elastic", "fleet.plan_elastic",
     None, None),
    ("repro.fleet.cluster", "merge_fleet", "fleet.merge_fleet", None, None),
)

#: Span names recorded by :data:`LAYERS`.
SPAN_NAMES = frozenset(layer[2] for layer in LAYERS)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install_layers(tracer: Tracer, only: str | None = None) -> None:
    """Wrap every layer boundary, or just the one whose span is ``only``
    (the untraced run's clock around its unit of work)."""
    for module, path, name, unit, count in LAYERS:
        if only is not None and name != only:
            continue
        owner, attr = _resolve(module, path)
        after = None
        if name == "runtime.compile_policy_table":
            def after(args, result, _tracer=tracer):
                manager = args[0]
                if "select" in vars(manager):
                    _tracer.wrap(manager, "select", "runtime.select")
        tracer.wrap(owner, attr, name, unit=unit, count=count, after=after)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children normally nest without overlapping; overlapping ones are
    merged first so no instant is subtracted twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(index, ())):
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


class Profile:
    """Per-name aggregates over the spans of one traced run.

    Totals and call counts take only a name's outermost spans (a
    ``select`` that falls back to the unbound ``select`` is one call);
    self times add up over every span. ``scope`` is the root span whose
    descendants count: ``"rep"`` for the timed repetitions.
    """

    def __init__(self, spans, reps: int, counters: dict | None = None,
                 overhead: float = 0.0):
        self.spans = spans
        self.reps = max(reps, 1)
        self.counters = counters or {}
        self.overhead = overhead
        own = self_times(spans)
        ancestors: list[frozenset] = []
        roots: list[str] = []
        self._total = defaultdict(float)
        self._calls = defaultdict(int)
        self._work = defaultdict(int)
        self._self = defaultdict(float)
        self._durations = defaultdict(list)
        self._all_total = defaultdict(float)
        self._all_calls = defaultdict(int)
        self._within = defaultdict(float)
        for index, (name, start, end, parent, _unit, n) in enumerate(spans):
            if parent >= 0:
                above = ancestors[parent] | {spans[parent][0]}
                root = roots[parent]
            else:
                above = frozenset()
                root = name
            ancestors.append(above)
            roots.append(root)
            outermost = name not in above
            if outermost:
                self._all_total[name] += end - start
                self._all_calls[name] += 1
            if root != "rep":
                continue
            self._self[name] += own[index]
            if outermost:
                self._total[name] += end - start
                self._calls[name] += 1
                self._work[name] += n
                self._durations[name].append(end - start)
                for anc in above:
                    self._within[(name, anc)] += end - start

    def total(self, name: str) -> float:
        return self._total[name]

    def calls(self, name: str) -> int:
        return self._calls[name]

    def self_time(self, name: str) -> float:
        return self._self[name]

    def work(self, name: str) -> int:
        return self._work[name]

    def rate(self, name: str) -> float:
        """Work count per second spent in ``name``."""
        seconds = self._total[name]
        return self._work[name] / seconds if seconds > 0 else 0.0

    def within(self, name: str, ancestor: str) -> float:
        """Seconds in outermost ``name`` spans under an ``ancestor``."""
        return self._within[(name, ancestor)]

    def per_call(self, name: str) -> float:
        """Mean seconds per call over every phase, set-up included."""
        calls = self._all_calls[name]
        return self._all_total[name] / calls if calls else 0.0

    def percentile(self, name: str, q: float) -> float:
        values = self._durations[name]
        return stats.percentile(values, q) if values else 0.0


#: Per-layer metrics that are not a plain ``<span>.{s,calls,self_s}``
#: per timed repetition.
DERIVED = {
    "nn.train_samples_per_s": lambda p: p.rate("nn.Trainer.fit"),
    "ir.images_per_s": lambda p: p.rate("ir.ExecutionPlan.run"),
    "core.point_s.p50": lambda p: p.percentile("core.point", 50),
    "core.point_s.p80": lambda p: p.percentile("core.point", 80),
    "core.points_failed": lambda p: p.counters.get("points_failed", 0.0),
    "edge.fastpath_share": lambda p: (
        p.work("edge.run_fast") / p.calls("edge.server_run")
        if p.calls("edge.server_run") else 0.0),
    "edge.ns_per_request": lambda p: (
        1e9 * p.total("edge.server_run") / p.work("edge.server_run")
        if p.work("edge.server_run") else 0.0),
    "runtime.compile_policy_table.s":
        lambda p: p.per_call("runtime.compile_policy_table"),
    "runtime.reconfigs_per_run":
        lambda p: p.counters.get("reconfigs_per_run", 0.0),
    "fleet.parent.self_s":
        lambda p: p.self_time("fleet.simulate_fleet") / p.reps,
    "fleet.server_runs.s":
        lambda p: p.within("edge.server_run", "fleet.simulate_fleet")
        / p.reps,
    "fleet.migrations": lambda p: p.counters.get("migrations", 0.0),
    "fleet.autoscale_ups": lambda p: p.counters.get("autoscale_ups", 0.0),
    "trace_overhead_frac": lambda p: p.overhead,
}

_PLAIN = {"s": Profile.total, "calls": Profile.calls,
          "self_s": Profile.self_time}


def layer_value(name: str, profile: Profile) -> float:
    """The value of per-layer metric ``name``; raises ``KeyError`` for a
    name that is neither derived nor ``<span name>.{s,calls,self_s}``."""
    if name in DERIVED:
        return float(DERIVED[name](profile))
    span, _, stat = name.rpartition(".")
    if span not in SPAN_NAMES or stat not in _PLAIN:
        raise KeyError(f"no per-layer metric {name!r}")
    return float(_PLAIN[stat](profile, span)) / profile.reps
