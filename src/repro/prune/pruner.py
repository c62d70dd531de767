"""Dead-interval early classification.

The pruner answers one question per sampled fault, *before* any
simulation: what is the first thing the golden run does to the faulted
cell after the injection instant?

* **a write** -- the flipped bit is overwritten before anything reads
  it.  Nothing consumed the corruption, the overwrite erases it, and
  the machine is bit-identical to the golden run from that cycle on:
  the fault is Masked by construction.  This is exact, not statistical
  (see DESIGN.md for the argument and its exclusions).
* **nothing, ever** -- the bit is never touched again.  No observation
  channel that watches *behavior* (pinout traffic, program output) can
  see it, so the fault is Masked -- except at the ``arch``
  (layer-boundary / HVF) observation point, which inspects the final
  hardware state itself and would report the surviving flip as latent
  corruption; there the fault is left to simulation.
* **a read** -- the corruption is consumed and anything may happen:
  the fault must be simulated.

Two refinements keep the classification *exact* on every tier:

**The event horizon.**  On pipelined backends the golden trajectory is
drain-punctuated: at every checkpoint boundary the golden run pauses
fetch, empties the pipeline and round-trips through a restore.  A
faulty run replays exactly that trajectory up to the injection instant
but then free-runs -- so the golden event stream is provably the faulty
machine's event stream only up to the *current segment's pre-drain stop
cycle* (past it, speculative activity and -- at the renamed tier --
physical-register labeling may diverge even for a masked fault).  The
pruner therefore accepts a verdict on such backends only when the
deciding event lies within the segment the fault was injected into;
anything beyond the horizon is simulated.  Drain-free backends (the
arch emulator) have no such divergence and keep the unlimited horizon,
as does the final segment of any run (the golden run free-runs from its
last checkpoint to program exit, exactly like a faulty run does).

**The observation window.**  A campaign that watches the pinout or
the program output for a bounded window after the injection stops the
faulty run ``window`` cycles later.  When the golden run does not touch
the faulted cell before that stop, and the stop lies within the
horizon above, the faulty run *is* the golden run through the whole
window except for the one untouched bit: its pinout and output are a
prefix of the golden ones, so the comparison reads Masked.  The
pruner proves it from the same trace query, bounded by the window
instead of the run (``DEAD_WINDOW_DETAIL``).  The ``arch`` observation
point reads final state and never takes this path.

**Write-born cells.**  A structure whose cells are unreadable until
their first write (the L1D data array, one cell per line: an invalid
line cannot hit, ``Cache._evict`` writes back only valid dirty lines,
and the only way back to valid is a refill that overwrites all of its
bytes) makes a flip in a cell the golden run has not yet written at
the injection instant Masked in every trajectory
(``DEAD_COLD_DETAIL``).  The claim is about the machine state at the
injection instant, not about any event after it, so no horizon bounds
it; it needs only that instant to be on the shared golden trajectory,
which rules out injections inside a drain window (the faulty run
reaches those without draining, and may fill lines the golden trace
never saw filled).  It holds at every observation point, the ``arch``
one included, because the coherent memory image overlays only valid
dirty lines.

**Structural reachability.**  A backend may declare cells its machine
cannot address at all -- the RT-level register-file macro's banked and
spare entries, which no instruction field can name.  Faults there are
masked by construction in every trajectory, with no horizon caveat.

The injection instant vs. the event timeline needs one convention: a
run pauses *between* ticks, and backends differ on whether the work
stamped with the stop cycle has already executed when the run pauses
there (``SimulatorBase.TRACE_EVENTS_AT_STOP_EXECUTED``).  The pruner
derives the first post-injection event stamp from that flag, so its
notion of "after the injection" matches ``run(stop_cycle=...)`` +
``inject()`` exactly, tier by tier.
"""

from __future__ import annotations

import bisect
from typing import Protocol, Sequence, TYPE_CHECKING

from repro.injection.classify import FaultClass

if TYPE_CHECKING:
    from repro.prune.trace import Event, LifetimeTrace

    #: Golden checkpoint cadence: ``(boundary_cycles, boundary_stops)``.
    Segments = tuple[Sequence[int], Sequence[int]]


class FaultLike(Protocol):
    """What the pruner reads off a sampled fault."""

    @property
    def structure(self) -> str: ...

    @property
    def bit(self) -> int: ...

    @property
    def cycle(self) -> int: ...

#: The campaign's pruning modes (``CampaignConfig.prune_mode``), the
#: one list every entry point validates against.  ``off`` simulates
#: every fault; ``dead`` is the trace-driven mode above; ``static``
#: classifies from the program text plus the retired-PC stream alone,
#: with no access trace captured at all (:mod:`repro.staticcheck`).
PRUNE_MODES = ("off", "dead", "static")

#: Detail strings of records classified without simulation.
DEAD_OVERWRITE_DETAIL = "pruned: overwritten before next read"
DEAD_SILENT_DETAIL = "pruned: never read again"
DEAD_UNREACHABLE_DETAIL = "pruned: structurally unreachable cell"
DEAD_WINDOW_DETAIL = "pruned: not touched within the window"
DEAD_COLD_DETAIL = "pruned: line not yet filled"


class FaultPruner:
    """Classifies faults from the golden access trace, without simulation.

    Built once per campaign from the golden run's
    :class:`~repro.prune.trace.LifetimeTrace`; consulted by
    :meth:`repro.injection.campaign.Campaign.run` while partitioning
    the sampled fault list.  ``segments`` carries the golden
    checkpoint cadence ``(boundary_cycles, boundary_stops)`` on
    pipelined backends (the event-horizon input); ``None`` means the
    whole trace is authoritative (drain-free backends).  ``window`` is
    the campaign's post-injection observation window in cycles
    (``None``: faulty runs go to program end, and only whole-run
    verdicts apply).
    """

    def __init__(self, trace: LifetimeTrace,
                 events_at_stop_executed: bool, observation: str,
                 segments: Segments | None = None,
                 window: int | None = None) -> None:
        self.trace = trace
        #: Tick-stamp convention of the backend that produced the trace
        #: (see the module docstring).
        self.events_at_stop_executed = bool(events_at_stop_executed)
        self.observation = observation
        self.segments = segments
        self.window = window

    # ------------------------------------------------------------------

    def _horizon(self, fault_cycle: int) -> int | None:
        """Last golden event stamp provably shared with a faulty run
        injected at ``fault_cycle``: the pre-drain stop closing the
        fault's segment, ``None`` for unlimited (drain-free backend,
        or the final free-running segment), ``-1`` when the injection
        lands inside a drain window (nothing past it is shared)."""
        if self.segments is None:
            return None
        cycles, stops = self.segments
        k = max(bisect.bisect_right(cycles, fault_cycle) - 1, 0)
        if k + 1 >= len(stops):
            return None
        stop = stops[k + 1]
        return stop if fault_cycle <= stop else -1

    def _threshold(self, fault: FaultLike) -> int:
        """Stamp of the first golden event after the injection."""
        return fault.cycle + (1 if self.events_at_stop_executed else 0)

    def _first_event_after_injection(
            self, fault: FaultLike) -> tuple[Event | None, bool]:
        """``(event_or_None, trustworthy)`` for the faulted cell."""
        trace = self.trace
        cell = trace.cell_of(fault.structure, fault.bit)
        event = trace.next_event(fault.structure, cell,
                                 self._threshold(fault))
        horizon = self._horizon(fault.cycle)
        if horizon is None:
            return event, True
        if event is None:
            # "Never touched again" is a whole-run claim; a bounded
            # horizon cannot prove it.
            return None, False
        cycle = event[0]
        return event, cycle <= horizon

    def classify(
            self, fault: FaultLike) -> tuple[FaultClass, str] | None:
        """``(FaultClass, detail)`` when provable without simulation,
        else ``None`` (the fault must be simulated)."""
        trace = self.trace
        if not trace.traces(fault.structure):
            return None
        cell = trace.cell_of(fault.structure, fault.bit)
        if not trace.reachable(fault.structure, cell):
            return FaultClass.MASKED, DEAD_UNREACHABLE_DETAIL
        if (trace.unwritten_before(fault.structure, cell,
                                   self._threshold(fault))
                and self._horizon(fault.cycle) != -1):
            return FaultClass.MASKED, DEAD_COLD_DETAIL
        event, trustworthy = self._first_event_after_injection(fault)
        if trustworthy:
            if event is None:
                # The bit survives to the end of the run untouched.
                # Behavior is golden, but the arch (HVF) observation
                # point inspects final state and would call the flip
                # latent -- simulate it.
                if self.observation != "arch":
                    return FaultClass.MASKED, DEAD_SILENT_DETAIL
            elif event[1]:
                return FaultClass.MASKED, DEAD_OVERWRITE_DETAIL
        if self._untouched_through_window(fault, event):
            return FaultClass.MASKED, DEAD_WINDOW_DETAIL
        return None

    def _untouched_through_window(self, fault: FaultLike,
                                  event: Event | None) -> bool:
        """Whether the faulty run stops, at ``fault.cycle + window``,
        before the golden run touches the cell (``event`` is the first
        post-injection event) and within the fault's horizon."""
        if self.window is None or self.observation == "arch":
            return False
        end = fault.cycle + self.window
        horizon = self._horizon(fault.cycle)
        if horizon is not None and end > horizon:
            # Past the horizon (or injected into a drain window, where
            # the horizon is -1) the golden events are not the faulty
            # run's.
            return False
        if event is None:
            return True
        # ``run(stop_cycle=end)`` has executed the events stamped
        # ``end`` on tiers that work before advancing the clock.
        if self.events_at_stop_executed:
            return event[0] > end
        return event[0] >= end

    def __repr__(self) -> str:
        return (
            f"FaultPruner({self.trace!r}, observation="
            f"{self.observation!r})"
        )
