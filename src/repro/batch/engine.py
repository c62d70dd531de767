"""Lane-engine dispatch and the machinery both backends share.

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

:class:`LaneGroup` is the lane-array group of the rtl backend, kept
apart from the pipeline specifics: the group's seek
(:meth:`FaultRunner.advance`, the scalar preamble), dead-time and
retirement bookkeeping, the regfile/CPSR flip at injection, and
classification through the one outcome kernel
(:func:`~repro.injection.classify.classify_outcome`).
"""

import time

import numpy as np

from repro.injection.classify import (
    AFTER_PROGRAM_END,
    FaultClass,
    FaultRecord,
    classify_outcome,
)
from repro.injection.observation import hardware_state
from repro.isa.flags import Flags
from repro.isa.syscalls import SyscallEmulator
from repro.sim.base import RunStatus


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

    def _run_groups(self, group_class, specs, chunks):
        """Run every chunk of spec indices as one group; faults no
        group resolved take the scalar path, in sample order."""
        records = [None] * len(specs)
        for chunk in chunks:
            group = group_class(self, [(i, specs[i]) for i in chunk])
            for index, record in group.run():
                records[index] = record
        for i, spec in enumerate(specs):
            if records[i] is None:
                records[i] = self.run_scalar(spec)
        return records

    def run_scalar(self, fault):
        """The untouched per-fault path (faults the rtl backend cannot
        hold as lanes, and lanes dropped on control divergence)."""
        record = self.runner.run_one(self.sim, fault)
        self.batch_cycles += record.replay_cycles + record.sim_cycles
        return record


class LaneGroup:
    """One group: N fault lanes (``0..N-1``) plus the fault-free
    reference lane ``N``.

    A backend subclass provides ``_run_lanes(sim)`` (build the lane
    state at the group's earliest injection instant, step until no lane
    is pending, return the final cycle), ``cycle`` (the current cycle),
    ``_lane_arrays()`` (the ``(regs, n, z, c, v)`` lane arrays), and
    ``_arch_view(k)`` (lane ``k``'s registers r0-r14, flag pack and
    coherent memory image), plus the lane ``store`` and
    :meth:`_lane_streams`.
    """

    def __init__(self, engine, items):
        self.engine = engine
        self.items = items  # [(original sample index, FaultSpec)]
        runner = engine.runner
        self.config = runner.config
        self.golden = runner.golden
        self.cache = runner.golden["cache"]
        self.deadline = runner.hang_deadline
        self.faults = [fault for _, fault in items]
        count = len(items)
        self.ref = count
        self.width = count + 1
        self.pending = set(range(count))
        self.injected = [False] * count
        self.replay = [0] * count
        #: ``(class, detail, sim_cycles, replay)`` per retired lane;
        #: ``None`` leaves the record to the scalar rerun.
        self.records = [None] * count
        window = self.config.window
        self.ends = [None if window is None else fault.cycle + window
                     for fault in self.faults]

    def run(self):
        engine = self.engine
        sim = engine.sim
        wall_start = time.perf_counter()
        _, self.restore_cycle, reached = engine.runner.advance(
            sim, min(fault.cycle for fault in self.faults))
        if reached:
            end = self._run_lanes(sim)
            engine.peak_lane_bytes = max(engine.peak_lane_bytes,
                                         self.store.peak_bytes)
        else:
            # The golden run ends before the earliest injection instant;
            # every later instant is past program end too, so the whole
            # group lands in dead time, lane for lane.
            end = sim.cycle
            self.records = [(FaultClass.MASKED, AFTER_PROGRAM_END, 0,
                             end - self.restore_cycle)] * len(self.items)
        engine.batch_cycles += end - self.restore_cycle
        wall = (time.perf_counter() - wall_start) / len(self.items)
        out = []
        for (index, fault), record in zip(self.items, self.records):
            if record is None:
                # The scalar rerun owns the record (and its wall time).
                out.append((index, engine.run_scalar(fault)))
                continue
            fclass, detail, sim_cycles, replay = record
            out.append((index, FaultRecord(
                fault, fclass, detail, sim_cycles=sim_cycles,
                wall_seconds=wall, replay_cycles=replay)))
        return out

    # -- the scalar run loop's events, per lane --------------------------

    def _arm(self, k, halted):
        """The pre-injection advance of ``run_one`` for lane ``k``: a
        lane whose program ended first lands in dead time, a lane at its
        instant is injected.  Returns whether ``k`` is live and
        injected (``halted`` is unchanged by the flip)."""
        if self.injected[k]:
            return True
        if halted:
            self._retire(k, FaultClass.MASKED, AFTER_PROGRAM_END,
                         sim_cycles=0,
                         replay=self.cycle - self.restore_cycle)
            return False
        if self.cycle < self.faults[k].cycle:
            return False
        self._inject(k)
        return True

    def _expire(self, k):
        """Window end, then the watchdog -- the scalar stop order."""
        end = self.ends[k]
        if end is not None and self.cycle >= end:
            self._conclude(k, RunStatus.STOPPED)
        elif self.cycle >= self.deadline:
            self._conclude(k, RunStatus.TIMEOUT)

    def _inject(self, k):
        """Flip lane ``k``'s fault bit in the lane arrays (register file
        entry or CPSR flag -- the structures lanes hold)."""
        fault = self.faults[k]
        self.injected[k] = True
        self.replay[k] = self.cycle - self.restore_cycle
        regs, n, z, c, v = self._lane_arrays()
        if fault.structure == "cpsr":
            flags = Flags.unpack(self._flag_pack(k) ^ (1 << fault.bit))
            n[k], z[k], c[k], v[k] = flags.n, flags.z, flags.c, flags.v
        else:  # regfile (banked/spare entries included)
            reg, bit = divmod(fault.bit, 32)
            regs[k, reg] ^= np.uint32(1 << bit)

    def _conclude(self, k, status):
        """Retire lane ``k`` with the outcome kernel's verdict on a run
        stopped with ``status`` (never ``FAULT``: a machine fault drops
        the lane to the scalar path first)."""
        base = self.cache.trace_base(self.faults[k].cycle)
        fclass, detail = classify_outcome(
            status, self.config.observation, self.golden,
            output=bytes(self.emus[k].output),
            hw_state=lambda: hardware_state(*self._arch_view(k)),
            pinout_suffix=lambda: self._lane_keys(k)[base:],
            trace_base=base)
        self._retire(k, fclass, detail)

    def _retire(self, k, fclass, detail, sim_cycles=None, replay=None):
        if sim_cycles is None:
            sim_cycles = self.cycle - self.faults[k].cycle
        if replay is None:
            replay = self.replay[k]
        self.records[k] = (fclass, detail, sim_cycles, replay)
        self._release(k)

    def _release(self, k):
        """Take lane ``k`` out of the live set and free its pages."""
        self.pending.discard(k)
        self.store.release(k)

    # -- lane state ----------------------------------------------------

    def _lane_streams(self, syscalls, pinout, count):
        """Syscall emulators restored from ``syscalls`` and pinout key
        lists for lanes ``0..count-1``.  The golden ``pinout`` at the
        group start is a shared prefix; each lane appends only its own
        post-start transactions."""
        self.emus = []
        for _ in range(count):
            emu = SyscallEmulator()
            emu.restore(syscalls)
            self.emus.append(emu)
        self.prefix_keys = [t.key() for t in pinout]
        self.keys = [[] for _ in range(count)]

    def _flag_lanes(self, pack):
        """``[n, z, c, v]`` lane arrays, every lane holding ``pack``."""
        flags = Flags.unpack(pack)
        return [np.full(self.width, bit, dtype=bool)
                for bit in (flags.n, flags.z, flags.c, flags.v)]

    def _flag_pack(self, k):
        _, n, z, c, v = self._lane_arrays()
        return ((int(n[k]) << 3) | (int(z[k]) << 2)
                | (int(c[k]) << 1) | int(v[k]))

    def _lane_keys(self, k):
        """Lane ``k``'s whole pinout key list: the shared golden prefix
        at the group start plus its own transactions."""
        return self.prefix_keys + self.keys[k]
