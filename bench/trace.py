"""Outside-in layer tracer for the campaign benchmark.

The tracer wraps the public methods at each layer boundary of the
campaign engine -- at class level, from outside ``src/`` -- and records
one span per call: name, start/end (``perf_counter_ns``), the span that
caused it, the scenario cell it belongs to (``cell.label()`` of the
enclosing ``ScenarioRunner.run_cell``), the simulator tier and, for
``SimulatorBase.run``, the cycles it advanced.  Spans stay in memory
and are written out as JSONL when the round ends.

A layer's self time is its span's duration minus the durations of its
direct child spans (one thread, so children never overlap).
:func:`layer_metrics` turns a span list into the per-layer metrics the
benchmark reports.
"""

import importlib
import json
import time

#: ``(module, class, method, span name)`` of every wrapped boundary.
TARGETS = (
    ("repro.scenario.runner", "ScenarioRunner", "run_cell", "cell"),
    ("repro.injection.campaign", "Campaign", "run", "campaign"),
    ("repro.injection.checkpoint_cache", "CheckpointCache",
     "capture_golden", "golden"),
    ("repro.injection.checkpoint_cache", "CheckpointCache", "seek", "seek"),
    ("repro.injection.campaign", "FaultRunner", "run_one", "fault"),
    ("repro.sim.base", "SimulatorBase", "run", "sim.run"),
    ("repro.sim.base", "SimulatorBase", "checkpoint", "sim.checkpoint"),
    ("repro.sim.base", "SimulatorBase", "restore", "sim.restore"),
    ("repro.sim.base", "SimulatorBase", "state_digest", "sim.digest"),
    ("repro.prune", "FaultPruner", "classify", "prune.dead"),
    ("repro.staticcheck", "StaticPruner", "__init__", "static.build"),
    ("repro.staticcheck", "StaticPruner", "classify", "static.classify"),
    ("repro.batch.arch", "ArchLaneEngine", "run", "lanes.arch"),
    ("repro.batch.rtl", "RTLLaneEngine", "run", "lanes.rtl"),
    ("repro.injection.store", "CampaignStore", "append", "store.append"),
)

SPAN_NAMES = tuple(target[3] for target in TARGETS)
TIERS = ("arch", "uarch", "rtl")


def _tier(name, obj, args):
    """The simulator tier a call works on, or ``None``."""
    if name.startswith("sim."):
        return type(obj).LEVEL
    if name in ("golden", "seek", "fault"):
        return type(args[0]).LEVEL
    if name.startswith("lanes."):
        return type(obj.sim).LEVEL
    if name == "campaign":
        return obj.level
    if name == "cell":
        return args[0].level
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "cell", "tier",
                 "cycles", "count")

    def __init__(self, name, start, end, parent, cell=None, tier=None,
                 cycles=0, count=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.cell = cell
        self.tier = tier
        #: Cycles a ``sim.run`` call advanced.
        self.cycles = cycles
        #: Checkpoints a ``golden`` capture took; faults a ``lanes.*``
        #: engine was handed.
        self.count = count

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Wraps :data:`TARGETS` while installed (a context manager)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._cell = None
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        try:
            for module, cls_name, method, name in TARGETS:
                cls = getattr(importlib.import_module(module), cls_name,
                              None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is None:
                    raise AttributeError(
                        f"trace target {module}.{cls_name}.{method} no "
                        f"longer exists; update bench/trace.py")
                _check_not_overridden(cls, method)
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(obj, *args, **kwargs):
            span = Span(name, clock(), 0, stack[-1] if stack else -1,
                        tier=_tier(name, obj, args))
            if name == "cell":
                tracer._cell = args[0].label()
            span.cell = tracer._cell
            if name == "sim.run":
                before = obj.cycle
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                stack.pop()
                if name == "sim.run":
                    span.cycles = obj.cycle - before
                elif name == "golden":
                    span.count = obj.count
                elif name.startswith("lanes."):
                    span.count = len(args[0])
                elif name == "cell":
                    tracer._cell = None
                span.end = clock()

        return wrapper

    def write(self, path):
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": span.name, "start_ns": span.start,
                    "end_ns": span.end, "parent": span.parent,
                    "cell": span.cell, "tier": span.tier,
                    "cycles": span.cycles, "count": span.count,
                }) + "\n")


def _check_not_overridden(cls, method):
    """A subclass overriding a wrapped method would bypass the wrapper
    and silently under-count the layer."""
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if method in sub.__dict__:
            raise AttributeError(
                f"{sub.__module__}.{sub.__name__} overrides "
                f"{cls.__name__}.{method}; bench/trace.py must wrap it too")
        pending.extend(sub.__subclasses__())


def span_counts(spans):
    """Span name -> number of calls recorded (every target listed)."""
    counts = dict.fromkeys(SPAN_NAMES, 0)
    for span in spans:
        counts[span.name] += 1
    return counts


def self_times(spans):
    """Per-span self time (ns): duration minus direct children's."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - child[i] for i, span in enumerate(spans)]


def run_phases(spans):
    """Phase of every ``sim.run`` span, by caller: ``golden`` (under
    the golden capture), ``seek`` (replay inside a checkpoint seek),
    ``advance`` (the first run after a seek, up to the injection
    instant) or ``tail`` (every later run of the fault or lane group).
    """
    phases = {}
    after_seek = set()
    for i, span in enumerate(spans):
        if span.name == "seek":
            after_seek.add(span.parent)
        if span.name != "sim.run":
            continue
        caller = spans[span.parent].name if span.parent >= 0 else ""
        if caller in ("golden", "seek"):
            phases[i] = caller
        elif span.parent in after_seek:
            after_seek.discard(span.parent)
            phases[i] = "advance"
        else:
            phases[i] = "tail"
    return phases


def layer_metrics(spans):
    """The span-derived per-layer metrics of one traced round."""
    own = self_times(spans)
    total = {}
    self_sum = {}
    for i, span in enumerate(spans):
        total[span.name] = total.get(span.name, 0) + span.duration
        self_sum[span.name] = self_sum.get(span.name, 0) + own[i]
    calls = span_counts(spans)

    def seconds(ns):
        return ns / 1e9

    out = {}
    for tier in TIERS:
        cycles = sum(s.cycles for s in spans
                     if s.name == "sim.run" and s.tier == tier)
        busy = sum(own[i] for i, s in enumerate(spans)
                   if s.name == "sim.run" and s.tier == tier)
        out[f"sim.{tier}.kcycles_per_s"] = (
            cycles / 1e3 / seconds(busy) if busy else 0.0)
    phase_ns = dict.fromkeys(("golden", "seek", "advance", "tail"), 0)
    for i, phase in run_phases(spans).items():
        phase_ns[phase] += own[i]
    out["phase.golden_s"] = seconds(phase_ns["golden"])
    # The seek phase is the whole seek: its restore plus any replay run.
    out["phase.seek_s"] = seconds(total.get("seek", 0))
    out["phase.advance_s"] = seconds(phase_ns["advance"])
    out["phase.tail_s"] = seconds(phase_ns["tail"])
    out["golden.s"] = seconds(total.get("golden", 0))
    out["golden.captures"] = calls["golden"]
    out["golden.checkpoints"] = sum(s.count for s in spans
                                    if s.name == "golden")
    out["sim.checkpoint_s"] = seconds(self_sum.get("sim.checkpoint", 0))
    out["sim.restore_s"] = seconds(self_sum.get("sim.restore", 0))
    out["sim.digests"] = calls["sim.digest"]
    out["fault.self_s"] = seconds(self_sum.get("fault", 0))
    # Layers some workloads bypass report their share of the round, so
    # a bypassed layer reads 0 rather than a constant time.
    wall = total.get("cell", 0)
    out["sim.digest_share"] = self_sum.get("sim.digest", 0) / wall
    out["prune.share"] = (self_sum.get("prune.dead", 0)
                          + self_sum.get("static.classify", 0)) / wall
    out["static.build_share"] = total.get("static.build", 0) / wall
    handed = 0
    for tier in ("arch", "rtl"):
        name = f"lanes.{tier}"
        faults = sum(s.count for s in spans if s.name == name)
        handed += faults
        busy = total.get(name, 0)
        out[f"{name}.faults_per_s"] = faults / seconds(busy) if busy else 0.0
    fallbacks = sum(1 for s in spans
                    if s.name == "fault" and _inside_lanes(spans, s))
    out["lanes.fallback_ratio"] = fallbacks / handed if handed else 0.0
    appends = calls["store.append"]
    out["store.appends"] = appends
    out["store.append_us"] = (total.get("store.append", 0) / 1e3 / appends
                              if appends else 0.0)
    return out


def _inside_lanes(spans, span):
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name.startswith("lanes."):
            return True
    return False
