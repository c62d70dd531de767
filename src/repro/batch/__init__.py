"""repro.batch: the lane walk.

``CampaignConfig(batch_lanes=N)`` makes :class:`~repro.injection
.campaign.FaultRunner` hand its faults to :func:`LaneEngine`, which
shares the golden replay among up to N faulty runs per seek instead of
replaying it once per fault: one walk for every tier
(:mod:`repro.batch.engine`) that forks each fault off the golden run
at its instant -- with a checkpoint on the drain-free arch tier, with
an in-flight waypoint on the pipelined uarch and rtl tiers.  The
records are bit-identical to the scalar path
(``tests/test_batch_equivalence.py``); only the simulated work
shrinks.  See DESIGN.md, "Lane engine".
"""

from repro.batch.engine import LaneEngine

__all__ = ["LaneEngine"]
