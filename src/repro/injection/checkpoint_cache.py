"""Golden-run checkpoint cache: the campaign warm-start subsystem.

A campaign's faulty phase restores a pre-fault machine state once per
injection.  This module owns everything about those restart points:

* **capture** -- during the golden run the cache takes one drained
  checkpoint every ``stride`` cycles through the
  :meth:`~repro.sim.base.SimulatorBase.checkpoint_at` hook, and records
  per-boundary metadata that stays tiny even when the checkpoint payload
  itself is evicted: the post-drain cycle, the pre-drain stop cycle, the
  full :meth:`~repro.sim.base.SimulatorBase.state_digest` and the pinout
  length;
* **bounding** -- ``max_resident`` caps how many checkpoint payloads
  stay in memory (and therefore how much the parallel executor
  serializes per worker).  Eviction is LRU over restore traffic; the
  base checkpoint is pinned so every cycle stays reachable.  Every
  other boundary keeps its RAM as the 4 KiB pages that differ from the
  base's, and every boundary its pinout as the suffix past the
  previous boundary's, resident or not (:meth:`entry` rebuilds both);
* **waypoints** -- on pipelined backends the golden run also keeps an
  undrained in-flight snapshot every quarter stride between two
  boundaries, evicted together with the boundary it follows;
* **seek** -- :meth:`seek` positions a simulator at the best retained
  restart point at or before a target cycle (``warm``: a waypoint of
  the target segment, else a checkpoint) or at the base checkpoint
  (``cold``), then replays the *drain-punctuated* golden trajectory
  through any evicted boundaries.

The replay detail is the correctness core: the golden run drains at
every boundary (that is how checkpoints are captured), so the golden
trajectory between checkpoints is the post-drain one.  ``seek`` replays
those same drains at the same stop cycles, which makes the pre-injection
state bit-identical no matter which checkpoint it started from -- warm
start, cold start and any eviction pattern all land in exactly the same
machine state.  That invariance is what the cross-tier equivalence suite
(tests/test_warmstart_equivalence.py) locks in.
"""

import bisect

from repro.memory.ram import apply_delta, page_delta
from repro.sim.base import RunStatus


class CheckpointCache:
    """Interval checkpoints of one golden run, LRU-bounded.

    Picklable: the whole cache travels to pool workers inside the
    serialized :class:`~repro.injection.campaign.FaultRunner` payload,
    so every worker shares the same restart points (and the bound also
    caps the per-worker transfer).
    """

    #: Default capture stride (cycles between drained checkpoints) when
    #: the campaign does not configure one.
    DEFAULT_STRIDE = 4000

    def __init__(self, stride=None, max_resident=None,
                 collect_digests=True):
        if stride is not None and stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if max_resident is not None and max_resident < 1:
            raise ValueError(
                f"max_resident must be >= 1 or None, got {max_resident}"
            )
        self.stride = stride or self.DEFAULT_STRIDE
        self.max_resident = max_resident
        #: Whether boundary state digests are captured.  They are only
        #: ever consumed by the early-stop comparator, which fires on
        #: ``DRAIN_FREE`` backends -- campaigns on pipelined backends
        #: skip the capture cost (a full-state CRC per boundary).
        self.collect_digests = collect_digests
        #: Post-drain cycle of boundary ``k`` (what ``cp["cycle"]`` was).
        self.cycles = []
        #: Pre-drain stop cycle of boundary ``k`` (where the golden run
        #: paused before draining); equals ``cycles[k]`` for the base.
        self.stops = []
        #: Full state digest right after the boundary checkpoint.
        self.digests = []
        #: Pinout length at the boundary (trace comparison base).
        self.pinout_lens = []
        #: The golden pinout up to the last boundary captured.  Each
        #: boundary's pinout extends the previous one's (the golden run
        #: resumes from its own checkpoint), so boundary ``k``'s is the
        #: first ``pinout_lens[k]`` transactions: each boundary adds
        #: only its suffix, kept whether or not the boundary stays
        #: resident.
        self._pinout = []
        #: Retained checkpoint payloads, index -> checkpoint dict
        #: without its ``"pinout"``; past the base, ``"ram"`` is
        #: replaced by ``"ram_pages"``, its
        #: :func:`~repro.memory.ram.page_delta` against the base RAM.
        self._entries = {}
        #: In-flight golden snapshots between boundaries (pipelined
        #: backends only), index of the boundary they follow -> list of
        #: :meth:`~repro.sim.base.SimulatorBase.waypoint` dicts in cycle
        #: order.  Resident and evicted together with that boundary.
        self._waypoints = {}
        #: Resident indices, least-recently-used first (index 0 pinned).
        self._lru = []

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    def capture(self, sim, stop_cycle=None):
        """Checkpoint ``sim`` right now and retain it (LRU-bounded).
        The checkpoint has no pinout: :meth:`_retain` reads the suffix
        straight off ``sim``."""
        cp = sim.checkpoint(pinout=False)
        self._retain(cp, cp["cycle"] if stop_cycle is None else stop_cycle,
                     sim)
        return cp

    def capture_golden(self, sim, on_restore=None):
        """Drive the golden run to completion, capturing every stride.

        Returns the final :class:`RunStatus`.  The caller owns listener
        setup and exit validation; this method owns the capture cadence.

        After each capture the simulator is *restored from its own
        checkpoint*.  Every faulty run starts from a restored
        checkpoint, and ``restore()`` canonicalizes microarchitectural
        residue that drain-in-place does not (which physical register
        backs an architectural one, free-list order).  Round-tripping
        the golden machine at every boundary makes the golden
        trajectory -- its pinout, its boundary digests and above all
        its lifetime access trace, whose events name *physical* storage
        cells -- the exact trajectory every warm- or cold-started
        faulty run replays.  Architectural content is unchanged by the
        round trip (that is the checkpoint contract); transient timing
        residue a drain leaves in place (current fetch line, stall
        watermarks) is re-primed, which defines the canonical golden
        timeline all equivalence contracts are stated on.

        ``restore()`` rebuilds the machine, so golden-phase listeners
        attached to its internals (the L1D acceleration access log) are
        lost at every boundary; ``on_restore(sim)``, when given, is
        called after each round trip to re-attach them.

        On pipelined backends (not ``DRAIN_FREE``) the run also pauses
        every :attr:`waypoint_spacing` cycles between two boundaries
        and keeps an in-flight snapshot of the undrained machine there
        (:meth:`seek` resumes from the last one at or before a fault).
        """
        cp = self.capture(sim)
        sim.restore(cp)
        if on_restore is not None:
            on_restore(sim)
        spacing = 0 if type(sim).DRAIN_FREE else self.waypoint_spacing
        while True:
            stop = sim.cycle + self.stride
            if spacing:
                # The boundary's pinout is the one kept so far.
                base = {"ram": cp["ram"], "pinout": self._pinout}
                status = self._capture_waypoints(sim, base, stop, spacing)
                if status is not RunStatus.STOPPED:
                    return status
            status, cp = sim.checkpoint_at(stop, pinout=False)
            if cp is None:
                return status
            self._retain(cp, stop, sim)
            sim.restore(cp)
            if on_restore is not None:
                on_restore(sim)
            if sim.exited or sim.fault is not None:
                return status

    @property
    def waypoint_spacing(self):
        """Cycles between in-flight waypoints: a quarter stride."""
        return self.stride // 4

    def _capture_waypoints(self, sim, base, stop, spacing):
        """Run the golden segment that follows boundary checkpoint
        ``base`` up to (not including) ``stop``, snapshotting every
        ``spacing`` cycles.  Returns the last run status."""
        index = len(self.cycles) - 1
        waypoints = []
        status = RunStatus.STOPPED
        for at in range(sim.cycle + spacing, stop, spacing):
            status = sim.run(stop_cycle=at)
            if status is not RunStatus.STOPPED:
                break
            waypoints.append(sim.waypoint(base))
        if waypoints and index in self._entries:
            self._waypoints[index] = waypoints
        return status

    def _retain(self, cp, stop_cycle, sim):
        index = len(self.cycles)
        self.cycles.append(cp["cycle"])
        self.stops.append(stop_cycle)
        self.digests.append(sim.state_digest() if self.collect_digests
                            else None)
        self.pinout_lens.append(len(sim.pinout))
        self._pinout.extend(sim.pinout[len(self._pinout):])
        cp = dict(cp)
        if index:
            cp["ram_pages"] = page_delta(cp.pop("ram"),
                                         self._entries[0]["ram"])
        self._entries[index] = cp
        self._touch(index)
        self._evict()

    def _touch(self, index):
        if index in self._lru:
            self._lru.remove(index)
        self._lru.append(index)

    def _evict(self):
        if self.max_resident is None:
            return
        while len(self._entries) > self.max_resident:
            victim = next(i for i in self._lru if i != 0)
            self._lru.remove(victim)
            del self._entries[victim]
            self._waypoints.pop(victim, None)

    def drop_access_traces(self):
        """Strip lifetime-trace snapshots from the retained checkpoints.

        A traced golden run snapshots its access trace into every
        checkpoint (so traced runs round-trip like the pinout does),
        but the campaign needs only the *final* trace -- the faulty
        phase restores with tracing sealed -- and the per-boundary
        prefixes would otherwise bloat the per-worker executor payload
        quadratically.  Called once after the golden phase.
        """
        for cp in self._entries.values():
            cp.pop("access_trace", None)

    # ------------------------------------------------------------------
    # lookup / seek
    # ------------------------------------------------------------------

    @property
    def count(self):
        """Boundaries captured (metadata rows, not resident payloads)."""
        return len(self.cycles)

    @property
    def resident(self):
        """Checkpoint payloads currently held in memory."""
        return len(self._entries)

    def boundary_at_or_before(self, cycle):
        """Index of the last boundary whose post-drain cycle is <= cycle."""
        return max(bisect.bisect_right(self.cycles, cycle) - 1, 0)

    def trace_base(self, cycle):
        """Pinout comparison base for a fault at ``cycle``: the golden
        pinout length at the boundary :meth:`seek` targets for it.
        This is what ``seek`` returns as its first element; the lane
        engine needs it without re-seeking because one group seek
        serves faults at many cycles."""
        return self.pinout_lens[self.boundary_at_or_before(cycle)]

    def nearest_resident(self, cycle):
        """Best retained restart point at or before ``cycle`` (touches
        it for LRU purposes)."""
        j = self.boundary_at_or_before(cycle)
        while j > 0 and j not in self._entries:
            j -= 1
        self._touch(j)
        return j

    def entry(self, index):
        """Retained checkpoint ``index`` as ``checkpoint()`` took it."""
        full = dict(self._entries[index])
        full["pinout"] = self._pinout[:self.pinout_lens[index]]
        if "ram_pages" in full:
            full["ram"] = bytes(apply_delta(self._entries[0]["ram"],
                                            full.pop("ram_pages")))
        return full

    def waypoint_at_or_before(self, index, cycle):
        """The last retained waypoint of boundary ``index``'s segment at
        or before ``cycle``, or None."""
        waypoints = self._waypoints.get(index, ())
        k = bisect.bisect_right([w["cycle"] for w in waypoints], cycle)
        return waypoints[k - 1] if k else None

    def seek(self, sim, cycle, warm=True, max_cycles=5_000_000):
        """Position ``sim`` on the golden trajectory so that running it
        to ``cycle`` reaches the pre-injection state, and leave that
        final advance to the caller: at the last boundary at or before
        ``cycle`` or, warm and with that boundary resident, at the last
        in-flight waypoint of its segment at or before ``cycle``.

        Returns ``(trace_base, restore_cycle)``: the pinout length at
        the target boundary (the classification comparison base) and
        the cycle the machine was put at, from which the caller
        computes the replayed-cycle accounting.

        ``warm=False`` restores the base checkpoint and replays the full
        drain-punctuated prefix -- the cold-start baseline.  All paths
        produce bit-identical machine states at ``cycle`` by
        construction.
        """
        target = self.boundary_at_or_before(cycle)
        start = self.nearest_resident(cycle) if warm else 0
        if warm and start == target:
            # The golden segment after a boundary is exactly
            # ``restore(cp[target])`` then run, and a waypoint is that
            # run paused: resuming it and running on is the same
            # trajectory, drain window included (waypoints precede the
            # next boundary's stop cycle, and a plain run never drains).
            waypoint = self.waypoint_at_or_before(target, cycle)
            if waypoint is not None:
                sim.resume_waypoint(self.entry(target), waypoint)
                return self.pinout_lens[target], waypoint["cycle"]
        sim.restore(self.entry(start))
        restore_cycle = sim.cycle
        for k in range(start + 1, target + 1):
            status = sim.run(stop_cycle=self.stops[k],
                             max_cycles=max_cycles)
            if status is not RunStatus.STOPPED:
                # Unreachable on a healthy cache (the golden run crossed
                # this boundary), kept as a hard failure over silence.
                raise RuntimeError(
                    f"golden replay ended early at boundary {k}: {status}"
                )
            sim.drain()
        if start != target:
            # Canonicalize: ``restore()`` rebuilds the machine, so a
            # restored checkpoint and an in-place-drained replay agree
            # on *content* but not necessarily on microarchitectural
            # residue (e.g. which physical register backs an
            # architectural one).  Injection targets raw structures, so
            # the seek must end in exactly the state
            # ``restore(cp[target])`` would produce -- a checkpoint
            # round-trip of the replayed machine is that state, because
            # checkpoint content is architectural and the replayed
            # content equals the golden content at this boundary.
            sim.restore(sim.checkpoint(pinout=False))
        return self.pinout_lens[target], restore_cycle

    # ------------------------------------------------------------------

    def __repr__(self):
        bound = self.max_resident or "unbounded"
        return (
            f"CheckpointCache({self.count} boundaries,"
            f" {self.resident} resident, stride={self.stride},"
            f" max_resident={bound})"
        )
