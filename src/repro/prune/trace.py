"""Golden-run access traces: per-cell read/write event logs.

A :class:`LifetimeTrace` records, for every *cell* of a registered
structure, the ordered sequence of read and write events the golden run
performed on it.  A cell is the backend's natural write granularity --
one 32-bit register of a register file, one flag bit of the CPSR -- so
an event on a cell covers every fault-target bit inside it: a register
write kills all 32 bits at once, a register read consumes all 32.

Events are stored per cell as one flat list of encoded integers,
``(cycle << 1) | is_write``, appended in execution order.  Cycles are
monotone within a run, so each cell's list is sorted and the
first-event-at-or-after query the pruner needs is a single bisect.
The encoding keeps the trace compact (tens of thousands of small ints
for the paper's workloads) and trivially picklable/snapshottable, which
is what lets checkpoints carry the trace prefix alongside the pinout
(see :meth:`repro.sim.base.SimulatorBase.checkpoint`).

A structure may be registered *write-born* (the L1D data array, one
cell per cache line): its cells hold nothing readable until their first
write, so a cell with no event before an instant was unreadable at that
instant (:meth:`LifetimeTrace.unwritten_before`).

A :class:`RetiredPCTrace` is the far cheaper sibling the *static*
pruner consumes: just the architectural retired-instruction stream as
``(cycle, pc)`` pairs, one bisect to anchor an injection cycle to the
first instruction that retires after it.  Unlike the access trace it is
drain-invariant -- the retired sequence is architectural, identical
across checkpoint cadences -- so it never rides inside checkpoints.
"""

from __future__ import annotations

import bisect

#: One encoded access event: ``(cycle, is_write, position)``.
Event = tuple[int, bool, int]
#: A snapshot of a :class:`LifetimeTrace` (see :meth:`snapshot`).
TraceState = tuple[
    dict[str, dict[int, list[int]]],
    dict[str, int],
    dict[str, "frozenset[int] | None"],
    "frozenset[str]",
]


class LifetimeTrace:
    """Per-structure, per-cell read/write event log of one golden run."""

    __slots__ = ("_events", "_bits_per_cell", "_reachable", "_write_born")

    def __init__(self) -> None:
        #: structure -> cell -> sorted list of ``(cycle << 1) | write``.
        self._events: dict[str, dict[int, list[int]]] = {}
        #: structure -> fault-target bits covered by one cell.
        self._bits_per_cell: dict[str, int] = {}
        #: structure -> frozenset of cells the machine can ever access,
        #: or None for "all" (see :meth:`register`).
        self._reachable: dict[str, frozenset[int] | None] = {}
        #: Structures whose cells are unreadable until first written.
        self._write_born: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    # registration + capture (backend listeners)
    # ------------------------------------------------------------------

    def register(self, structure: str, bits_per_cell: int,
                 reachable_cells: "range | frozenset[int] | None" = None,
                 write_born: bool = False) -> None:
        """Declare a traced structure and its cell granularity.

        ``bits_per_cell`` maps a fault-target bit index to its cell
        (``bit // bits_per_cell``): 32 for register files, 1 for the
        per-bit CPSR flags.

        ``reachable_cells``, when given, names the cells the machine
        can *structurally* access at all -- e.g. the RT-level
        register-file macro holds 56 entries but the pipeline only ever
        addresses the 16 architectural ones; faults in the banked/spare
        entries are masked by construction.  ``None`` means every cell
        is reachable.

        ``write_born`` declares that a cell cannot be read before the
        golden run first writes it -- an L1D line is invalid until its
        first refill, and the refill overwrites every byte -- so the
        cell's first recorded event is always a write.
        """
        if bits_per_cell < 1:
            raise ValueError(f"bits_per_cell must be >= 1, got "
                             f"{bits_per_cell}")
        self._events.setdefault(structure, {})
        self._bits_per_cell[structure] = bits_per_cell
        self._reachable[structure] = (
            None if reachable_cells is None else frozenset(reachable_cells)
        )
        if write_born:
            self._write_born |= {structure}

    def record(self, structure: str, cell: int, cycle: int,
               write: bool) -> None:
        """Append one event (in execution order; cycles are monotone)."""
        cells = self._events[structure]
        encoded = (cycle << 1) | bool(write)
        try:
            cells[cell].append(encoded)
        except KeyError:
            cells[cell] = [encoded]

    # ------------------------------------------------------------------
    # queries (the pruner)
    # ------------------------------------------------------------------

    def traces(self, structure: str) -> bool:
        """Whether ``structure`` is registered for tracing."""
        return structure in self._bits_per_cell

    def cell_of(self, structure: str, bit: int) -> int:
        """The cell covering fault-target ``bit`` of ``structure``."""
        return bit // self._bits_per_cell[structure]

    def reachable(self, structure: str, cell: int) -> bool:
        """Whether the machine can structurally access ``cell`` at all."""
        cells = self._reachable.get(structure)
        return cells is None or cell in cells

    def unwritten_before(self, structure: str, cell: int,
                         cycle: int) -> bool:
        """Whether ``cell`` of a write-born structure has no event
        stamped before ``cycle`` -- its content was unreadable then."""
        if structure not in self._write_born:
            return False
        events = self._events[structure].get(cell)
        return not events or events[0] >> 1 >= cycle

    def next_event(self, structure: str, cell: int,
                   min_cycle: int) -> Event | None:
        """First event on ``cell`` at or after ``min_cycle``.

        Returns ``(cycle, is_write, position)`` -- ``position`` is the
        event's index in the cell's stream, a stable identifier of the
        interval boundary -- or ``None``
        when the golden run never touches the cell again.
        """
        events = self._events[structure].get(cell)
        if not events:
            return None
        pos = bisect.bisect_left(events, min_cycle << 1)
        if pos == len(events):
            return None
        encoded = events[pos]
        return encoded >> 1, bool(encoded & 1), pos

    # ------------------------------------------------------------------
    # introspection (tests, reports)
    # ------------------------------------------------------------------

    def structures(self) -> tuple[str, ...]:
        return tuple(sorted(self._bits_per_cell))

    def cells(self, structure: str) -> tuple[int, ...]:
        """Cells of ``structure`` with at least one event, sorted."""
        return tuple(sorted(self._events.get(structure, ())))

    def events(self, structure: str, cell: int) -> tuple[tuple[int, bool], ...]:
        """Decoded ``(cycle, is_write)`` event stream of one cell."""
        return tuple((e >> 1, bool(e & 1))
                     for e in self._events.get(structure, {}).get(cell, ()))

    def event_count(self) -> int:
        return sum(len(events) for cells in self._events.values()
                   for events in cells.values())

    # ------------------------------------------------------------------
    # snapshot / restore (checkpoint round trips)
    # ------------------------------------------------------------------

    def snapshot(self) -> TraceState:
        return (
            {s: {c: list(ev) for c, ev in cells.items()}
             for s, cells in self._events.items()},
            dict(self._bits_per_cell),
            dict(self._reachable),
            self._write_born,
        )

    def restore(self, state: TraceState) -> None:
        events, bits, reachable, write_born = state
        self._events = {s: {c: list(ev) for c, ev in cells.items()}
                        for s, cells in events.items()}
        self._bits_per_cell = dict(bits)
        self._reachable = dict(reachable)
        self._write_born = frozenset(write_born)

    def __repr__(self) -> str:
        per = ", ".join(
            f"{s}:{sum(len(e) for e in cells.values())}ev"
            for s, cells in sorted(self._events.items())
        )
        return f"LifetimeTrace({per or 'empty'})"


class RetiredPCTrace:
    """The golden run's retired-instruction stream, ``(cycle, pc)``.

    Backends append in retirement order (cycles are monotone,
    duplicates allowed -- the arch tier retires one instruction per
    stamp, the RT tier may retire a dual-issued pair on one cycle), so
    anchoring an injection cycle to the first subsequent retirement is
    a single bisect over the cycle column.
    """

    __slots__ = ("_cycles", "_pcs")

    def __init__(self) -> None:
        self._cycles: list[int] = []
        self._pcs: list[int] = []

    def record(self, cycle: int, pc: int) -> None:
        """Append one retirement (in execution order)."""
        self._cycles.append(cycle)
        self._pcs.append(pc)

    def anchor(self, min_cycle: int) -> int | None:
        """PC of the first instruction retiring at or after
        ``min_cycle``, or ``None`` when the run has already ended."""
        pos = bisect.bisect_left(self._cycles, min_cycle)
        if pos == len(self._pcs):
            return None
        return self._pcs[pos]

    def entries(self) -> tuple[tuple[int, int], ...]:
        """The full ``(cycle, pc)`` stream (tests, reports)."""
        return tuple(zip(self._cycles, self._pcs))

    def __len__(self) -> int:
        return len(self._pcs)

    def __repr__(self) -> str:
        return f"RetiredPCTrace({len(self._pcs)} retirements)"
