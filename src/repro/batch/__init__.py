"""repro.batch: the batch-fault lane engine.

``CampaignConfig(batch_lanes=N)`` makes :class:`~repro.injection
.campaign.FaultRunner` hand its faults to :func:`LaneEngine`, which
shares the golden replay among up to N faulty runs instead of
replaying it once per fault -- on the arch tier as a shared-advance
walk that forks each fault off the golden run at its instant
(:mod:`repro.batch.arch`), on the rtl tier as lane arrays over the
in-order pipeline with drop-to-scalar divergence fallback
(:mod:`repro.batch.rtl`), whose lane RAM views share a copy-on-write
paged store (:mod:`repro.batch.memory`).  The records are
bit-identical to the scalar path (``tests/test_batch_equivalence.py``,
``tests/test_batch_rtl_equivalence.py``); only the simulated work
shrinks.  See DESIGN.md, "Lane engine".
"""

from repro.batch.engine import LaneEngine
from repro.batch.memory import LanePagedMemory

__all__ = ["LaneEngine", "LanePagedMemory"]
