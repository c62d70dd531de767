"""Lane-engine dispatch and the state both backends share.

``LaneEngine(runner, sim, lanes)`` is the factory the campaign layer
calls for any simulator whose ``BATCHABLE`` protocol flag is set; it
returns the backend matching the simulator's registry level:

* ``arch`` -- :class:`repro.batch.arch.ArchLaneEngine`, a
  shared-advance scalar walk over the golden trajectory: one
  checkpoint fork per injection instant, no lane state at all;
* ``rtl`` -- :class:`repro.batch.rtl.RTLLaneEngine`, lane arrays over
  the in-order pipeline's register file, CPSR and latches, on
  copy-on-write paged lane memory (:mod:`repro.batch.memory`), with
  drop-to-scalar fallback on pipeline-control divergence.

Every backend exposes the same contract: ``run(specs)`` returns
records positionally aligned with ``specs`` and bit-identical to the
scalar :meth:`FaultRunner.run_one` sequence, plus the deterministic
cost counters ``batch_cycles`` (cycles actually stepped) and
``peak_lane_bytes`` (high-water lane-memory bytes).
"""


def LaneEngine(runner, sim, lanes):
    """Build the lane backend for ``sim``'s tier."""
    level = type(sim).LEVEL
    if level == "rtl":
        from repro.batch.rtl import RTLLaneEngine

        return RTLLaneEngine(runner, sim, lanes)
    if level == "arch":
        from repro.batch.arch import ArchLaneEngine

        return ArchLaneEngine(runner, sim, lanes)
    raise ValueError(
        f"no lane backend for level {level!r} (BATCHABLE misconfigured?)")


class LaneEngineBase:
    """Drive a :class:`FaultRunner`'s faults ``lanes`` at a time (per
    shared seek for the arch walk, per lane group for rtl)."""

    def __init__(self, runner, sim, lanes):
        self.runner = runner
        self.sim = sim
        self.lanes = lanes
        #: Cycles actually stepped (arch: walk plus tails; rtl: shared
        #: replay + shared tail per group, plus scalar reruns'
        #: replay+sim), the deterministic batch-cost metric.
        self.batch_cycles = 0
        #: High-water copy-on-write page bytes over any one group (a
        #: dense lane build would hold ``(N+1) * footprint`` here); 0
        #: for the arch walk, which holds no lane pages.
        self.peak_lane_bytes = 0
