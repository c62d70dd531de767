"""The arch-tier lane backend: a shared-advance scalar walk.

The scalar campaign path replays the interpreter once per fault:
restore the nearest golden checkpoint, advance to the injection
instant, flip one bit and run the post-injection tail.  For faults
sorted by injection cycle, those replays walk overlapping stretches of
the *same* golden trajectory, so the walk shares them: after each
fault's tail the machine is rewound to the fault's instant and advanced
forward to the next instant, instead of re-seeking from a checkpoint.

What makes the rewind exact is that the arch tier is ``DRAIN_FREE``:
there is no pipeline to empty, so :meth:`SimulatorBase.checkpoint` at
any cycle copies the complete golden machine (registers, flags, PC,
RAM, syscall context, pinout), and :meth:`SimulatorBase.restore` of it
is the very state a fresh seek-and-advance would reach at that cycle --
a checkpoint there *is* a fork of the golden run.  Each fault is then
injected, finished and classified by the scalar path's own
:meth:`FaultRunner.inject_and_classify`, so its record is the scalar
record by construction; ``tests/test_batch_equivalence.py`` pins that.

The walk seeks (:meth:`FaultRunner.advance`) at the first fault of
every group of at most ``lanes`` faults, whenever the next instant
belongs to a different golden checkpoint boundary, and after a fault
whose instant fell past program end (the exited machine has no state
to walk on from).  Otherwise a seek and a walk reach the same machine
state, so where the walk seeks changes the cycles it steps, never a
record.

Accounting: a record's ``replay_cycles`` are the walk cycles it added
(its seek replay, or the advance from the previous instant), and
:attr:`ArchLaneEngine.batch_cycles` sums walk cycles plus tails.  The
walk holds no lane pages, so ``peak_lane_bytes`` stays 0.
"""

import time

from repro.batch.engine import LaneEngineBase
from repro.sim.base import RunStatus


class ArchLaneEngine(LaneEngineBase):
    """Walk a :class:`FaultRunner`'s faults in injection-cycle order.

    ``run()`` returns records positionally aligned with ``specs`` (the
    caller's sample order).
    """

    def run(self, specs):
        runner = self.runner
        sim = self.sim
        cache = runner.golden["cache"]
        records = [None] * len(specs)
        order = sorted(range(len(specs)), key=lambda i: (specs[i].cycle, i))
        boundary = None  # of the live walk; None forces a seek
        shared = 0  # faults served by the current seek
        for i in order:
            fault = specs[i]
            start = time.perf_counter()
            target = cache.boundary_at_or_before(fault.cycle)
            if target != boundary or shared == self.lanes:
                trace_base, restore_cycle, reached = runner.advance(
                    sim, fault.cycle)
                walked = sim.cycle - restore_cycle
                shared = 0
            else:
                origin = sim.cycle
                reached = sim.run(stop_cycle=fault.cycle,
                                  max_cycles=runner.hang_deadline
                                  ) is RunStatus.STOPPED
                walked = sim.cycle - origin
            shared += 1
            boundary = target if reached else None
            if reached:
                instant = sim.checkpoint()
            records[i] = record = runner.inject_and_classify(
                sim, fault, trace_base, reached, replay_cycles=walked,
                run_start=start)
            if reached:
                sim.restore(instant)
            self.batch_cycles += record.replay_cycles + record.sim_cycles
        return records
