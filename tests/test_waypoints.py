"""In-flight golden waypoints: exactness over the whole registry.

On the pipelined tiers (uarch, rtl) a warm ``CheckpointCache.seek``
may resume an undrained snapshot taken by the golden run between two
boundaries instead of restoring the boundary checkpoint.  The promise
is that the pre-injection state is the one ``restore(cp[k])`` plus a
run to the instant reaches -- the definition of the golden segment --
for *every* piece of machine state, pipeline latches included.

The states are compared as value trees of the whole machine object
graph (every attribute of every object reachable from the core, RAM
bytes and the timed pinout), not through ``state_digest``, which
deliberately leaves the in-flight pipeline out.  Instants cover a
waypoint itself, one cycle either side of it, and the drain window
``[stops[k+1], cycles[k+1])`` where the golden run was already
draining towards the next boundary.  Both machines then run on, so a
re-linking mistake (a dead pinout hook, a stale RAM reference) shows
as a later divergence.
"""

import enum
import pickle

import numpy as np
import pytest

from repro.injection.checkpoint_cache import CheckpointCache
from repro.sim import registry
from repro.workloads import WORKLOAD_NAMES

LEVELS = ("uarch", "rtl")
#: Attributes that are memoized derivations, not state (an
#: instruction's dataflow record is rebuilt on first use).
DERIVED = frozenset({"_flow"})
RUN_ON = 1500


def value_tree(obj, path=()):
    """``obj`` as nested plain tuples, compared by value throughout."""
    if isinstance(obj, (bool, int, float, str, bytes, type(None),
                        enum.Enum)):
        return obj
    if isinstance(obj, bytearray):
        return ("bytearray", bytes(obj))
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, np.generic):
        return ("scalar", obj.dtype.str, obj.item())
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__,
                tuple(value_tree(x, path) for x in obj))
    if isinstance(obj, dict):
        return ("dict", tuple((value_tree(k, path), value_tree(v, path))
                              for k, v in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return (type(obj).__name__,
                tuple(sorted(repr(value_tree(x, path)) for x in obj)))
    if hasattr(obj, "__self__") and hasattr(obj, "__func__"):
        return ("method", obj.__func__.__qualname__)
    if callable(obj) and not hasattr(obj, "__dict__") \
            and not hasattr(type(obj), "__slots__"):
        return ("callable", repr(type(obj)))
    if id(obj) in path:
        return ("cycle", type(obj).__qualname__)
    fields = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    inner = path + (id(obj),)
    return (type(obj).__qualname__,
            tuple((name, value_tree(value, inner))
                  for name, value in sorted(fields.items())
                  if name not in DERIVED))


def machine_state(sim):
    """The complete in-flight state of ``sim``: its machine object
    graph with the outside links cut, plus RAM and the timed pinout."""
    cut = [(obj, attr, getattr(obj, attr))
           for obj, attr in sim._outside_links()]
    for obj, attr, _ in cut:
        setattr(obj, attr, None)
    try:
        tree = value_tree(sim.core)
    finally:
        for obj, attr, value in cut:
            setattr(obj, attr, value)
    return (tree, bytes(sim.ram.data),
            tuple(t.key(with_timing=True) for t in sim.pinout))


@pytest.fixture(scope="module", params=[(level, workload)
                                        for level in LEVELS
                                        for workload in WORKLOAD_NAMES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def golden(request):
    """A golden capture made the way a campaign makes it: with every
    golden-only observer attached (lifetime trace, retired-PC stream
    where the tier has one, the L1D access log)."""
    level, workload = request.param
    factory = registry.create_frontend(level, workload).sim_factory
    sim = factory()
    log = []

    def attach_log(target):
        target.dcache.access_listener = (
            lambda *event: log.append(event))

    attach_log(sim)
    sim.enable_access_trace(snapshot_in_checkpoints=False)
    sim.enable_pc_trace()
    cache = CheckpointCache(collect_digests=False)
    cache.capture_golden(sim, on_restore=attach_log)
    assert sim.exited
    assert log, "the access log observer never fired"
    return factory, cache


def instants(cache):
    """``(instant, expected restore cycle)`` pairs: around a waypoint,
    and inside a drain window."""
    out = []
    segments = [k for k in range(cache.count)
                if len(cache._waypoints.get(k, ())) >= 3]
    assert segments, "no segment carries a full set of waypoints"
    k = segments[len(segments) // 2]
    first, middle = cache._waypoints[k][0], cache._waypoints[k][1]
    w = middle["cycle"]
    out += [(w - 1, first["cycle"]), (w, w), (w + 1, w)]
    for k in range(cache.count - 1):
        last = cache._waypoints.get(k)
        if last and cache.cycles[k + 1] > cache.stops[k + 1]:
            out += [(cache.stops[k + 1], last[-1]["cycle"]),
                    (cache.cycles[k + 1] - 1, last[-1]["cycle"])]
            break
    else:
        pytest.fail("no drain window follows a waypointed segment")
    return out


def test_waypoints_are_lean(golden):
    _, cache = golden
    spacing = cache.waypoint_spacing
    for k, waypoints in cache._waypoints.items():
        assert len(waypoints) <= cache.stride // spacing - 1
        # Strictly inside the segment, before the next boundary's stop.
        segment_end = (cache.stops[k + 1] if k + 1 < cache.count
                       else float("inf"))
        for waypoint in waypoints:
            assert cache.cycles[k] < waypoint["cycle"] < segment_end
            # No RAM image, program or golden observer inside.
            assert len(waypoint["machine"]) < 64 * 1024
            assert all(len(page) == 4096 for _, page in waypoint["ram"])


def test_resume_equals_seek_plus_advance(golden):
    factory, cache = golden
    for instant, expected in instants(cache):
        resumed = factory()
        _, restore_cycle = cache.seek(resumed, instant)
        assert restore_cycle == expected, instant
        resumed.run(stop_cycle=instant)
        replayed = factory()
        k = cache.boundary_at_or_before(instant)
        replayed.restore(cache.entry(k))
        replayed.run(stop_cycle=instant)
        assert resumed.cycle == replayed.cycle == instant
        assert machine_state(resumed) == machine_state(replayed), instant
        # Injection reaches the resumed machine, not a stale part.
        core = resumed.core
        parts = {id(getattr(core, name)) for name in type(core).__slots__}
        for structure in resumed.INJECTABLE:
            holder, _ = resumed._resolve_target(structure)
            assert id(holder) in parts, structure
        end = instant + RUN_ON
        resumed.run(stop_cycle=end)
        replayed.run(stop_cycle=end)
        assert machine_state(resumed) == machine_state(replayed), (
            f"diverged after running on from {instant}")


def dict_holders(sim):
    """Type names of the objects in ``sim``'s machine graph (outside
    links but the RAM cut, callables skipped) that carry an instance
    ``__dict__``.  A latched wrong-path :class:`~repro.errors.SimFault`
    is an exception, which always has one, and is skipped too."""
    cut = {id(getattr(obj, attr))
           for obj, attr in sim._outside_links()} - {id(sim.ram)}
    found, seen, pending = set(), set(), [sim.core]
    while pending:
        obj = pending.pop()
        if id(obj) in seen or id(obj) in cut or callable(obj) or isinstance(
                obj, (bool, int, float, str, bytes, bytearray, type(None),
                      enum.Enum, np.ndarray, np.generic, BaseException)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            pending.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            pending.extend(obj)
        else:
            if hasattr(obj, "__dict__"):
                found.add(type(obj).__qualname__)
                pending.extend(vars(obj).values())
            pending.extend(getattr(obj, name)
                           for cls in type(obj).__mro__
                           for name in getattr(cls, "__slots__", ())
                           if hasattr(obj, name))
    return found


def test_machine_graph_is_slotted(golden):
    """Restored and waypoint-resumed machines run on slotted objects:
    unpickling a waypoint materializes no instance ``__dict__``."""
    factory, cache = golden
    restored = factory()
    restored.restore(cache.entry(cache.count // 2))
    resumed = factory()
    instant, expected = instants(cache)[1]
    assert cache.seek(resumed, instant)[1] == expected
    for sim in (restored, resumed):
        sim.run(stop_cycle=sim.cycle + 200)
        assert not dict_holders(sim), type(sim).LEVEL


def test_cold_seek_ignores_waypoints(golden):
    factory, cache = golden
    instant, _ = instants(cache)[1]
    sim = factory()
    _, restore_cycle = cache.seek(sim, instant, warm=False)
    assert restore_cycle == cache.cycles[0]


def test_waypoints_evicted_with_their_boundary():
    factory = registry.create_frontend("rtl", "stringsearch").sim_factory
    cache = CheckpointCache(max_resident=2, collect_digests=False)
    cache.capture_golden(factory())
    assert cache.count > cache.resident == 2
    assert cache._waypoints
    assert set(cache._waypoints) <= set(cache._entries)
    # Travels with the cache to workers.
    assert pickle.loads(pickle.dumps(cache))._waypoints.keys() \
        == cache._waypoints.keys()
