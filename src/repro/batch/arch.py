"""The arch tier's lane walk (:class:`~repro.batch.engine.LaneWalk`).

The arch emulator is ``DRAIN_FREE``: a checkpoint at any cycle is an
exact fork of the golden machine, so the walk forks with
``checkpoint()``/``restore()``.
"""

from repro.batch.engine import LaneWalk


class ArchLaneEngine(LaneWalk):
    """The lane walk on the arch tier; ``run`` is the walk itself,
    named per tier so a trace can hook it."""

    run = LaneWalk.run
