"""The shared simulator protocol: run control, checkpoints, injection.

Every abstraction level the study can target -- the architectural
emulator (:mod:`repro.sim.archsim`), the microarchitectural model
(:mod:`repro.uarch.simulator`) and the RT-level model
(:mod:`repro.rtl.simulator`) -- implements one protocol, and this module
owns it:

* :class:`RunStatus` -- the outcome vocabulary of a (partial) run;
* :class:`SimulatorBase` -- run control (stop cycles, watchdogs),
  drain-based ``checkpoint()``/``restore()``, pinout publication, the
  ``fault_targets()``/``inject()`` resolution over each backend's
  ``INJECTABLE`` map, and ``stats()``.

Backends only supply ``_build()`` (construct the machine), the state
capture/restore hooks and their ``INJECTABLE`` maps; the campaign engine
in :mod:`repro.injection` is generic over this protocol, which is the
paper's "equivalent setup" requirement made executable.  Backends are
looked up by level name through :mod:`repro.sim.registry`.
"""

import enum
import io
import pickle
import zlib

from repro.errors import SimFault
from repro.memory.bus import Transaction
from repro.memory.cache import Cache
from repro.memory.ram import RAM


def _crc(obj):
    """Stable content checksum of a snapshot payload.

    Snapshots are plain containers of bytes/ints/numpy arrays, so their
    pickling is deterministic within one platform+interpreter -- which is
    the scope a digest is ever compared across (parent process and its
    campaign workers).  The pickler runs without its memo (``fast``):
    with it the bytes depend on which equal objects are *the same*
    object, and a pinout restored from an unpickled checkpoint (its
    own ``"wb"`` strings) would checksum differently from the golden
    run's (interned ones) in an equal state.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return zlib.crc32(buffer.getbuffer())


class RunStatus(enum.Enum):
    RUNNING = "running"
    EXITED = "exited"
    FAULT = "fault"
    STOPPED = "stopped"   # reached the requested stop cycle
    TIMEOUT = "timeout"   # watchdog expired


class SimulatorBase:
    """Common machinery of every simulation backend.

    A subclass provides:

    * ``LEVEL`` -- its registry name (``arch``/``uarch``/``rtl``);
    * ``INJECTABLE`` -- structure name -> human description;
    * ``default_config()`` -- the config object used when none is given;
    * ``_build()`` -- construct the machine as ``self.core``: anything
      with ``fault``/``syscalls``/``tick()``/``quiesced()``/
      ``draining``, *assignable* ``cycle``/``icount``/``pc``/
      ``exited``/``mispredicts`` (``restore()`` writes them back), plus
      ``self.ram`` and, when it models caches,
      ``self.dcache``/``self.icache``;
    * ``_capture_state()``/``_restore_state(cp)`` -- the level-specific
      checkpoint payload (register storage, cache arrays, ...);
    * ``_set_restart_point(pc, cycle)`` -- re-arm the level's notion of
      "committed PC" and hang bookkeeping after a restore;
    * optionally ``_resolve_special(structure)`` for injection targets
      outside the shared cache-array namespace.
    """

    LEVEL = None
    INJECTABLE = {}

    #: True when ``drain()`` is a no-op because the machine is always
    #: architecturally quiescent (no pipeline to empty).  On such
    #: backends a mid-run :meth:`state_digest` is directly comparable to
    #: a golden checkpoint digest at the same cycle, which is what makes
    #: the campaign engine's early-stop convergence check sound there.
    DRAIN_FREE = False

    #: Tick-stamp convention of the access trace: True when a tick
    #: advances the cycle counter *before* doing its work, so that when
    #: ``run(stop_cycle=c)`` pauses at cycle ``c`` the trace events
    #: stamped ``c`` have already executed (the hardware models).  The
    #: arch emulator works then advances, so events stamped with the
    #: stop cycle are still pending there.  The fault pruner uses this
    #: to decide which golden events are post-injection.
    TRACE_EVENTS_AT_STOP_EXECUTED = True

    def __init__(self, program, config=None, trace_accesses=False):
        self.config = config if config is not None else self.default_config()
        self.program = program
        self.pinout = []
        self.dcache = None
        self.icache = None
        #: Golden-run access trace (:mod:`repro.prune`); None until
        #: :meth:`enable_access_trace`.
        self._access_trace = None
        self._trace_sealed = False
        #: Non-zero while state observation (checkpoint capture, digest,
        #: restore) reads storage: those accesses are bookkeeping, not
        #: execution, and must not pollute the lifetime trace.
        self._trace_pause = 0
        self._trace_in_checkpoints = True
        #: Which cells the access trace records (see
        #: :meth:`enable_access_trace`).
        self._trace_scope = "registers"
        #: Golden-run retired-PC stream (:mod:`repro.staticcheck`);
        #: None until :meth:`enable_pc_trace`.
        self._pc_trace = None
        self._pc_trace_sealed = False
        self._build()
        if trace_accesses:
            self.enable_access_trace()

    # -- construction hooks --------------------------------------------

    @classmethod
    def default_config(cls):
        raise NotImplementedError

    def _build(self):
        raise NotImplementedError

    def _make_ram(self):
        """Fresh RAM with the program image loaded (every level's base)."""
        ram = RAM(self.program.layout.ram_size)
        self.program.load_into(ram)
        return ram

    def _bus_listener(self):
        """The pinout publication hook handed to the cache hierarchy."""
        def bus_event(kind, addr, data, cycle):
            self.pinout.append(Transaction(kind, addr, data, cycle))
        return bus_event

    # ------------------------------------------------------------------
    # access tracing (the fault-pruning subsystem's capture hook)
    # ------------------------------------------------------------------

    def enable_access_trace(self, snapshot_in_checkpoints=True,
                            scope="registers"):
        """Start recording per-cell read/write events into a
        :class:`~repro.prune.trace.LifetimeTrace`.

        ``scope`` names the cells recorded.  ``"registers"``: the
        backend's register storage, through the storage listeners it
        installs in :meth:`_install_trace_listeners`.  ``"l1d"``: the
        L1D data array, one write-born cell per (set, way) line
        (:meth:`_install_line_listener`), and nothing else -- the
        campaign traces what its fault target can use.

        The base class keeps the trace across :meth:`restore`
        (re-installing listeners on the rebuilt machine) and -- with ``snapshot_in_checkpoints`` -- copies it
        into checkpoints so traced runs round-trip exactly like the
        pinout does.  The campaign's golden capture disables the
        snapshots: it round-trips the *same* machine at the *same*
        instant after every capture, where the live trace is already
        the right prefix and the per-boundary copies (the trace grows
        with the run, so effectively quadratic work) would be thrown
        away unread.
        """
        if self._access_trace is None:
            from repro.prune.trace import LifetimeTrace

            self._access_trace = LifetimeTrace()
        if scope not in ("registers", "l1d"):
            raise ValueError(f"unknown access-trace scope {scope!r}")
        self._trace_sealed = False
        self._trace_in_checkpoints = bool(snapshot_in_checkpoints)
        self._trace_scope = scope
        self._attach_trace(self._access_trace)
        return self._access_trace

    def access_trace(self):
        """The recorded :class:`LifetimeTrace`, or None when disabled."""
        return self._access_trace

    def seal_access_trace(self):
        """Stop recording (detach listeners), keeping the trace readable.

        The campaign seals right after the golden run: the same
        simulator object then executes faulty runs (serial path), whose
        accesses must not leak into the golden trace.
        """
        if self._access_trace is not None:
            self._trace_sealed = True
            self._remove_trace_listeners()
            if self.dcache is not None:
                self.dcache.trace_listener = None

    def _trace_active(self):
        return self._access_trace is not None and not self._trace_sealed

    def _attach_trace(self, trace):
        """Attach the listeners of the trace's scope to the machine."""
        if self._trace_scope == "l1d":
            self._install_line_listener(trace)
        else:
            self._install_trace_listeners(trace)

    def _install_line_listener(self, trace):
        """Record L1D line events into ``trace`` (scope ``"l1d"``).

        One cell per (set, way) line, so a cell covers the line's
        ``8 * line_size`` data bits (the ``l1d.data`` bit layout is
        flat over set, way, byte, bit).  A refill is a write, a load
        or a dirty write-back a read; the line is write-born -- invalid
        until its first refill.  Cacheless backends record nothing.
        """
        cache = self.dcache
        if cache is None:
            return
        ways = cache.config.ways
        trace.register("l1d.data", 8 * cache.config.line_size,
                       write_born=True)

        def line_event(index, way, write):
            if self._trace_pause == 0:
                trace.record("l1d.data", index * ways + way,
                             self.core.cycle, write)

        cache.trace_listener = line_event

    def _install_trace_listeners(self, trace):
        """Backend hook: attach storage listeners feeding ``trace``.

        The default registers nothing -- a backend without trace support
        degrades to "no fault is ever pruned", which is sound.
        """

    def _remove_trace_listeners(self):
        """Backend hook: detach whatever ``_install_trace_listeners``
        attached."""

    # ------------------------------------------------------------------
    # retired-PC tracing (the static pruner's capture hook)
    # ------------------------------------------------------------------

    def enable_pc_trace(self):
        """Start recording the retired-instruction stream into a
        :class:`~repro.prune.trace.RetiredPCTrace`.

        The far cheaper sibling of :meth:`enable_access_trace`: one
        ``(cycle, pc)`` pair per retirement, no per-cell bookkeeping.
        The stream is architectural and drain-invariant, so it is never
        copied into checkpoints -- a restore rewinds the machine but the
        already-recorded golden prefix stays valid as-is (the campaign
        only consults it after the golden run completes).
        """
        if self._pc_trace is None:
            from repro.prune.trace import RetiredPCTrace

            self._pc_trace = RetiredPCTrace()
        self._pc_trace_sealed = False
        self._install_pc_listener(self._pc_trace)
        return self._pc_trace

    def pc_trace(self):
        """The recorded :class:`RetiredPCTrace`, or None when disabled."""
        return self._pc_trace

    def seal_pc_trace(self):
        """Stop recording (detach the listener), keeping the stream
        readable (see :meth:`seal_access_trace`)."""
        if self._pc_trace is not None:
            self._pc_trace_sealed = True
            self._remove_pc_listener()

    def _pc_trace_active(self):
        return self._pc_trace is not None and not self._pc_trace_sealed

    def _install_pc_listener(self, trace):
        """Backend hook: attach the retirement listener feeding
        ``trace``.  The default records nothing -- a backend without
        the hook degrades to "no fault is ever statically classified",
        which is sound."""

    def _remove_pc_listener(self):
        """Backend hook: detach whatever ``_install_pc_listener``
        attached."""

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------

    @property
    def cycle(self):
        return self.core.cycle

    @property
    def icount(self):
        return self.core.icount

    @property
    def exited(self):
        return self.core.exited

    @property
    def exit_code(self):
        return self.core.syscalls.exit_code

    @property
    def fault(self):
        return self.core.fault

    @property
    def output(self):
        return bytes(self.core.syscalls.output)

    def run(self, stop_cycle=None, max_cycles=5_000_000):
        """Advance until program exit, a fault, ``stop_cycle`` or the
        watchdog.  Returns a :class:`RunStatus`."""
        core = self.core
        while True:
            if core.exited:
                return RunStatus.EXITED
            if core.fault is not None:
                return RunStatus.FAULT
            if stop_cycle is not None and core.cycle >= stop_cycle:
                return RunStatus.STOPPED
            if core.cycle >= max_cycles:
                return RunStatus.TIMEOUT
            core.tick()

    def run_to_completion(self, max_cycles=5_000_000):
        return self.run(max_cycles=max_cycles)

    # ------------------------------------------------------------------
    # checkpoints (drain + full state capture)
    # ------------------------------------------------------------------

    def drain(self, guard_cycles=300_000):
        """Stop fetching and run until the pipeline is empty."""
        core = self.core
        core.draining = True
        deadline = core.cycle + guard_cycles
        try:
            while (not core.quiesced() and not core.exited
                   and core.fault is None):
                if core.cycle >= deadline:
                    raise SimFault("halt-trap", "drain did not converge")
                core.tick()
        finally:
            core.draining = False

    def checkpoint(self, pinout=True):
        """Drain the pipeline and capture a deterministic restart point.

        ``pinout=False`` leaves the published pinout out: restoring
        such a checkpoint keeps the pinout as it stands, so it only
        serves a round trip on this very machine (the golden capture,
        which keeps boundary pinouts itself, and seek's canonicalizing
        round trip) -- not a fork restored after the machine ran on.
        """
        self.drain()
        core = self.core
        self._trace_pause += 1
        try:
            cp = {
                "cycle": core.cycle,
                "icount": core.icount,
                "pc": self._restart_pc(),
                "ram": self.ram.snapshot(),
                "syscalls": core.syscalls.snapshot(),
                "mispredicts": core.mispredicts,
                "exited": core.exited,
            }
            if pinout:
                cp["pinout"] = list(self.pinout)
            cp.update(self._capture_state())
            if self._trace_active() and self._trace_in_checkpoints:
                cp["access_trace"] = self._access_trace.snapshot()
        finally:
            self._trace_pause -= 1
        return cp

    def checkpoint_at(self, stop_cycle, max_cycles=5_000_000,
                      pinout=True):
        """Advance to ``stop_cycle`` and checkpoint there (``pinout``
        as for :meth:`checkpoint`).

        Returns ``(status, checkpoint)``; the checkpoint is ``None``
        when the run ended (exit/fault/watchdog) before the stop cycle.
        This is the capture primitive of
        :class:`repro.injection.checkpoint_cache.CheckpointCache`.
        """
        status = self.run(stop_cycle=stop_cycle, max_cycles=max_cycles)
        if status is not RunStatus.STOPPED:
            return status, None
        return status, self.checkpoint(pinout=pinout)

    def state_digest(self):
        """Content digest of the complete deterministic machine state.

        Two simulators of the same backend with equal digests at the
        same cycle are in identical states -- registers, flags, PC,
        memory, syscall context, published pinout and the level-specific
        extras of :meth:`_digest_extra` -- so their futures are
        identical.  The campaign engine compares faulty-run digests
        against golden boundary digests to prove re-convergence (early
        masked classification) and the backend test suite uses it for
        checkpoint/restore round-trip properties.
        """
        self._trace_pause += 1
        try:
            arch = self.arch_state()
            core = self.core
            return (
                self.cycle,
                self.icount,
                self.exited,
                self.fault is None,
                tuple(arch["regs"]),
                arch["flags"],
                arch["pc"],
                _crc(self.ram.snapshot()),
                core.syscalls.snapshot(),
                _crc([t.key() for t in self.pinout]),
                self._digest_extra(),
            )
        finally:
            self._trace_pause -= 1

    def _digest_extra(self):
        """Level-specific digest components (cache arrays, predictor...).

        The base covers every backend that models L1s; cacheless levels
        inherit the empty contribution.  Performance counters (cache
        hit/miss tallies, predictor lookup counts) are deliberately
        excluded: wrong-path accesses that hit bump them without
        changing any behavior-determining state, so including them
        would make digests of interchangeable machines differ.
        """
        if self.dcache is None:
            return ()
        counters, ras = self.predictor.snapshot()[:2]
        return (
            _crc(self._cache_content(self.dcache)),
            _crc(self._cache_content(self.icache)),
            _crc((counters, ras)),
        )

    @staticmethod
    def _cache_content(cache):
        snap = cache.snapshot()
        return {k: v for k, v in snap.items() if k != "stats"}

    def restore(self, cp):
        """Rebuild the machine from a checkpoint (fresh, empty pipeline)."""
        self._trace_pause += 1
        try:
            self._build()
            core = self.core
            self.ram.restore(cp["ram"])
            core.syscalls.restore(cp["syscalls"])
            if "pinout" in cp:
                self.pinout[:] = cp["pinout"]
            self._restore_state(cp)
            core.cycle = cp["cycle"]
            core.icount = cp["icount"]
            core.pc = cp["pc"]
            self._set_restart_point(cp["pc"], cp["cycle"])
            core.exited = cp["exited"]
            core.mispredicts = cp["mispredicts"]
        finally:
            self._trace_pause -= 1
        if self._trace_active():
            # ``_build`` replaced the storage objects: rewind the trace
            # to the checkpoint's prefix and re-attach the listeners.
            if "access_trace" in cp:
                self._access_trace.restore(cp["access_trace"])
            self._attach_trace(self._access_trace)
        if self._pc_trace_active():
            # The retired-PC stream is append-only and drain-invariant:
            # no prefix to rewind, just re-attach to the rebuilt core.
            self._install_pc_listener(self._pc_trace)

    # ------------------------------------------------------------------
    # in-flight waypoints (undrained snapshots of a running machine)
    # ------------------------------------------------------------------

    def waypoint(self, base):
        """Snapshot the machine as it stands, pipeline in flight.

        Unlike :meth:`checkpoint` nothing drains, so resuming the
        snapshot (:meth:`resume_waypoint`) continues the very trajectory
        this machine is on.  ``base`` is the boundary checkpoint the
        machine was last restored from: RAM is kept as the 4 KiB pages
        that differ from ``base["ram"]`` and the pinout as the suffix
        past ``base["pinout"]``.  Links that leave the machine
        (:meth:`_outside_links`: the shared program, the RAM, observer
        callbacks such as golden-run trace listeners) are cut for the
        pickle and restored right after it.
        """
        cut = [(obj, attr, getattr(obj, attr))
               for obj, attr in self._outside_links()]
        for obj, attr, _ in cut:
            setattr(obj, attr, None)
        try:
            machine = pickle.dumps(self.core,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            for obj, attr, value in cut:
                setattr(obj, attr, value)
        return {
            "cycle": self.cycle,
            "machine": machine,
            "ram": self.ram.page_delta(base["ram"]),
            "pinout": self.pinout[len(base["pinout"]):],
        }

    def resume_waypoint(self, base, waypoint):
        """Put the machine exactly where :meth:`waypoint` found it.

        Its own method rather than a :meth:`restore` variant: restore
        rebuilds an empty pipeline, this adopts an in-flight one and
        re-links it to this simulator's program, RAM (laid out again in
        place, so nothing may hold its buffer across a resume) and
        pinout hook.  Observer listeners stay detached unless a trace is
        recording (as after :meth:`restore`).
        """
        ram = self.ram
        ram.restore_delta(base["ram"], waypoint["ram"])
        core = pickle.loads(waypoint["machine"])
        self._adopt_machine(core)
        core.program = self.program
        core.ram = ram
        bus_event = self._bus_listener()
        for cache in (self.dcache, self.icache):
            if cache is not None:
                cache.ram = ram
                setattr(cache, cache.PINOUT_HOOK, bus_event)
        self.pinout[:] = base["pinout"]
        self.pinout.extend(waypoint["pinout"])
        if self._trace_active():
            self._attach_trace(self._access_trace)
        if self._pc_trace_active():
            self._install_pc_listener(self._pc_trace)

    def _outside_links(self):
        """``(object, attribute)`` slots through which the machine
        reaches outside itself; backends add their trace listeners."""
        core = self.core
        links = [(core, "program"), (core, "ram")]
        for cache in (self.dcache, self.icache):
            if cache is not None:
                links += [(cache, "ram"), (cache, cache.PINOUT_HOOK),
                          (cache, "access_listener"),
                          (cache, "trace_listener")]
        return links

    def _adopt_machine(self, core):
        """Backend hook: make ``core`` (unpickled from a waypoint) this
        simulator's machine, re-pointing the shortcuts ``_build`` set
        (caches, register files, ...) at its parts."""
        raise NotImplementedError

    # -- checkpoint hooks ----------------------------------------------

    def _restart_pc(self):
        """The committed/retired next PC captured into a checkpoint."""
        raise NotImplementedError

    def _capture_state(self):
        raise NotImplementedError

    def _restore_state(self, cp):
        raise NotImplementedError

    def _set_restart_point(self, pc, cycle):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def _resolve_special(self, structure):
        """Level-specific injection targets (register files, CPSR, ...).

        Returns ``(holder, array)`` or ``None`` to fall through to the
        shared cache-array namespace.
        """
        return None

    def _resolve_target(self, structure):
        special = self._resolve_special(structure)
        if special is not None:
            return special
        prefix, _, array = structure.partition(".")
        cache = {"l1d": self.dcache, "l1i": self.icache}.get(prefix)
        if cache is None or array not in Cache.ARRAYS:
            raise ValueError(f"unknown fault target {structure!r}")
        return cache, array

    def _target_bits(self, holder, array):
        return holder.bit_count() if array is None else holder.bit_count(array)

    def _flip(self, holder, array, bit_index):
        if array is None:
            holder.flip_bit(bit_index)
        else:
            holder.flip_bit(array, bit_index)

    def fault_targets(self):
        """Mapping of structure name -> number of injectable bits."""
        out = {}
        for structure in self.INJECTABLE:
            holder, array = self._resolve_target(structure)
            out[structure] = self._target_bits(holder, array)
        return out

    def inject(self, structure, bit_index):
        """Flip one bit in ``structure`` right now."""
        holder, array = self._resolve_target(structure)
        self._flip(holder, array, bit_index)

    # ------------------------------------------------------------------

    def stats(self):
        out = {
            "cycles": self.cycle,
            "instructions": self.icount,
            "ipc": self.icount / self.cycle if self.cycle else 0.0,
        }
        out.update(self._memory_stats())
        return out

    def _memory_stats(self):
        """Cache/predictor counters; zeros at levels without the model."""
        if self.dcache is None:
            return {"l1d_hits": 0, "l1d_misses": 0, "l1d_writebacks": 0,
                    "l1i_misses": 0, "mispredicts": 0}
        return {
            "l1d_hits": self.dcache.hits,
            "l1d_misses": self.dcache.misses,
            "l1d_writebacks": self.dcache.writebacks,
            "l1i_misses": self.icache.misses,
            "mispredicts": self.core.mispredicts,
        }

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.program.name!r},"
            f" cycle={self.cycle}, icount={self.icount})"
        )
