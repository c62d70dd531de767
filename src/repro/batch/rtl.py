"""The rtl tier's lane walk (:class:`~repro.batch.engine.LaneWalk`).

The RT-level pipeline is not drain-free, so the walk forks at
in-flight waypoints (``waypoint()``/``resume_waypoint()``), the same
undrained snapshots the golden capture keeps between boundaries.
"""

from repro.batch.engine import LaneWalk


class RTLLaneEngine(LaneWalk):
    """The lane walk on the rtl tier; ``run`` is the walk itself,
    named per tier so a trace can hook it."""

    run = LaneWalk.run
