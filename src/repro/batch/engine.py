"""The lane walk: one shared-advance fault walk for every tier.

The scalar campaign path replays the golden run once per fault: seek
the nearest golden restart point, advance to the injection instant,
flip one bit and run the post-injection tail.  For faults sorted by
injection cycle, those replays walk overlapping stretches of the
*same* golden trajectory, so :class:`LaneWalk` shares them: it forks
the machine at a fault's instant, runs that fault's tail, rejoins the
golden run at the instant and advances on to the next one, instead of
seeking again.  How the machine forks depends on the tier:

* ``DRAIN_FREE`` (arch) -- :meth:`SimulatorBase.checkpoint` at any
  cycle copies the complete golden machine and
  :meth:`SimulatorBase.restore` of it is the very state a fresh
  seek-and-advance would reach there;
* pipelined (uarch, rtl) -- :meth:`SimulatorBase.waypoint` snapshots
  the machine in flight, pipeline undrained, and
  :meth:`SimulatorBase.resume_waypoint` puts it back: the trajectory
  the golden run was on, exactly as :meth:`CheckpointCache.seek`'s own
  waypoints do.  The waypoints' base is the golden RAM and pinout at
  the first fork after each seek, so later forks of the same seek
  pickle only the pages they wrote since.

Each fault is then injected, finished and classified by the scalar
path's own :meth:`FaultRunner.inject_and_classify`, so its record is the
scalar record by construction; ``tests/test_batch_equivalence.py`` pins
that on every tier.

A fork pays a snapshot, so the walk forks only where walking on is
cheaper than the next fault's own seek -- when all of these hold:

* the fault was reached (an instant past program end leaves an exited
  machine with nothing to walk on from);
* the next fault in cycle order lies in the same golden checkpoint
  boundary (the golden run drains at every boundary, so a walk never
  crosses one);
* fewer than ``lanes`` faults have shared the current seek;
* the next fault's seek would restart at or before this instant: its
  in-flight golden waypoint (:meth:`CheckpointCache
  .waypoint_at_or_before`), or else its boundary, lies behind the
  walk.

Otherwise the next fault seeks (:meth:`FaultRunner.advance`).  A seek
and a walk reach the same machine state, so where the walk seeks
changes the cycles it steps, never a record.

Accounting: a record's ``replay_cycles`` are the walk cycles it added
(its seek replay, or the advance from the previous instant), and
:attr:`LaneWalk.batch_cycles` sums walk cycles plus tails.

``LaneEngine(runner, sim, lanes)`` is the factory the campaign layer
calls; the arch and rtl tiers get the named siblings
:class:`~repro.batch.arch.ArchLaneEngine` and
:class:`~repro.batch.rtl.RTLLaneEngine`, whose ``run`` is this walk
(a trace hooks each tier's ``run`` by name).
"""

import time

from repro.sim.base import RunStatus


def LaneEngine(runner, sim, lanes):
    """The lane walk for ``sim``'s tier."""
    from repro.batch.arch import ArchLaneEngine
    from repro.batch.rtl import RTLLaneEngine

    walk = {"arch": ArchLaneEngine, "rtl": RTLLaneEngine}.get(
        type(sim).LEVEL, LaneWalk)
    return walk(runner, sim, lanes)


class LaneWalk:
    """Walk a :class:`FaultRunner`'s faults in injection-cycle order,
    up to ``lanes`` faults per shared seek.

    ``run()`` returns records positionally aligned with ``specs`` (the
    caller's sample order).
    """

    def __init__(self, runner, sim, lanes):
        self.runner = runner
        self.sim = sim
        self.lanes = lanes
        #: Cycles actually stepped (walk plus tails), the deterministic
        #: batch-cost metric.
        self.batch_cycles = 0
        #: Golden RAM and pinout at the first waypoint fork of the
        #: current seek, the base its waypoints are kept against.
        self._base = None

    def run(self, specs):
        runner = self.runner
        sim = self.sim
        order = sorted(range(len(specs)), key=lambda i: (specs[i].cycle, i))
        records = [None] * len(specs)
        live = False  # sim stands on the golden run at the last instant
        for n, i in enumerate(order):
            fault = specs[i]
            start = time.perf_counter()
            origin = sim.cycle
            if live:
                reached = sim.run(stop_cycle=fault.cycle,
                                  max_cycles=runner.hang_deadline
                                  ) is RunStatus.STOPPED
            else:
                trace_base, origin, reached = runner.advance(
                    sim, fault.cycle)
                shared = 0
                self._base = None
            shared += 1
            following = specs[order[n + 1]] if n + 1 < len(order) else None
            live = (reached and shared < self.lanes
                    and self._walks_on(fault, following))
            if live:
                rejoin = self._fork()
            records[i] = record = runner.inject_and_classify(
                sim, fault, trace_base, reached,
                replay_cycles=sim.cycle - origin, run_start=start)
            if live:
                rejoin()
            self.batch_cycles += record.replay_cycles + record.sim_cycles
        return records

    def _walks_on(self, fault, following):
        """Whether walking on from ``fault``'s instant reaches
        ``following`` no later than its own seek would start."""
        if following is None:
            return False
        cache = self.runner.golden["cache"]
        target = cache.boundary_at_or_before(fault.cycle)
        if cache.boundary_at_or_before(following.cycle) != target:
            return False
        if not self.runner.config.warm_start:
            return True  # a cold seek replays from the base checkpoint
        waypoint = cache.waypoint_at_or_before(target, following.cycle)
        return waypoint is None or waypoint["cycle"] <= fault.cycle

    def _fork(self):
        """Snapshot the golden machine; returns the call that puts it
        back."""
        sim = self.sim
        if type(sim).DRAIN_FREE:
            instant = sim.checkpoint()
            return lambda: sim.restore(instant)
        if self._base is None:
            self._base = {"ram": sim.ram.snapshot(),
                          "pinout": list(sim.pinout)}
        base = self._base
        waypoint = sim.waypoint(base)
        return lambda: sim.resume_waypoint(base, waypoint)
