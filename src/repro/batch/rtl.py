"""The rtl-tier lane backend: N faulty pipeline runs in one pass.

The RT-level model is a cycle-accurate in-order pipeline, so its faulty
runs cannot be replayed as a pure architectural lockstep the way the
arch backend does -- fetch, issue, bypass, cache FSMs and the branch
predictor all carry timing state.  What *can* be shared is the control
trajectory: a register-file or CPSR fault leaves the pipeline's control
stream (fetched PCs, issue grouping, cache line traffic, stall and
redirect schedule) on the golden path until the flipped bit reaches a
control-deciding value -- a condition code, a branch/PC target, a
memory address, a syscall operand.  Those runs dominate the campaign.

So the engine adopts the simulator's live mid-flight core as a
**lane core**: same pipeline latches, caches, predictor and fetch
stream, but the register file, CPSR and every in-flight data value
become ``(N+1,)`` lane arrays over :mod:`repro.isa.valu` kernels (lane
``N`` is the fault-free **reference** whose scalars drive the real
caches).  Lane RAM views share one copy-on-write
:class:`~repro.batch.memory.LanePagedMemory` seeded from
:func:`~repro.injection.observation.coherent_image` (RAM overlaid with
dirty D-cache lines, exactly the view the memory digest hashes).

Every control-deciding value is **enforced**: the lane values are
compared against the reference and any injected lane that disagrees is
dropped from the vector on the spot -- its private pages are freed and
it reruns on the untouched scalar path (:meth:`FaultRunner.run_one`),
which also owns every DUE outcome (a machine fault *is* control
divergence).  Surviving lanes therefore share the reference control
stream cycle for cycle, which is what makes their pinout traces,
syscall outputs and hardware state exactly what their scalar runs
would produce, and the outcome kernel they are classified through is
the scalar path's own (:func:`~repro.injection.classify
.classify_outcome`); ``tests/test_batch_rtl_equivalence.py`` pins the
records bit-identical across the matrix.

Groups are formed per golden checkpoint segment
(:meth:`CheckpointCache.boundary_at_or_before`): the RT-level seek is
drain-punctuated, so only faults sharing a segment see the same
pre-injection pipeline state as their scalar seeks.  Cache-array
faults (``l1d.*``/``l1i.*``) mutate the shared cache model itself and
always take the scalar path.
"""

import time

import numpy as np

from repro.batch.engine import LaneEngineBase
from repro.batch.memory import LanePagedMemory
from repro.errors import SimFault
from repro.injection.classify import (
    AFTER_PROGRAM_END,
    FaultClass,
    FaultRecord,
    classify_outcome,
)
from repro.injection.observation import coherent_image, hardware_state
from repro.isa import valu
from repro.isa.flags import Flags
from repro.isa.instructions import (
    COMPARE_OPS,
    Cond,
    DP_IMM_OPS,
    DP_REG_FORM,
    DP_REG_OPS,
    LOAD_OPS,
    MEM_SIZE,
    Op,
    STORE_OPS,
    UNARY_OPS,
)
from repro.isa.syscalls import SyscallEmulator, SyscallError
from repro.rtl.core import RTLCore, _PC
from repro.sim.base import RunStatus

MASK32 = 0xFFFFFFFF

#: Memory forms whose offset is the immediate (register forms shift rm).
_IMM_MEM_OPS = (Op.LDR, Op.STR, Op.LDRB, Op.STRB, Op.LDRH, Op.STRH)

#: Structures the vector path can hold as lane arrays.  Cache-array
#: faults mutate the shared timing model and stay scalar.
_VECTOR_STRUCTURES = ("regfile", "cpsr")


class RTLLaneEngine(LaneEngineBase):
    """Drive a :class:`FaultRunner`'s rtl faults through lane groups.

    ``run()`` returns records positionally aligned with ``specs`` and
    bit-identical to the scalar :meth:`FaultRunner.run_one` sequence.
    """

    def run(self, specs):
        vector = [i for i, s in enumerate(specs)
                  if s.structure in _VECTOR_STRUCTURES]
        vector.sort(key=lambda i: (specs[i].cycle, i))
        cache = self.runner.golden["cache"]
        groups = []
        for i in vector:
            boundary = cache.boundary_at_or_before(specs[i].cycle)
            if (groups and groups[-1][0] == boundary
                    and len(groups[-1][1]) < self.lanes):
                groups[-1][1].append(i)
            else:
                groups.append((boundary, [i]))
        records = [None] * len(specs)
        for _, chunk in groups:
            group = _RTLLaneGroup(self, [(i, specs[i]) for i in chunk])
            for index, record in group.run():
                records[index] = record
        # Faults no group resolved take the scalar path, in sample order.
        for i, spec in enumerate(specs):
            if records[i] is None:
                records[i] = self.run_scalar(spec)
        return records

    def run_scalar(self, fault):
        """The untouched per-fault path (faults the lanes cannot hold,
        and lanes dropped on control divergence)."""
        record = self.runner.run_one(self.sim, fault)
        self.batch_cycles += record.replay_cycles + record.sim_cycles
        return record


class _RTLLaneGroup:
    """One same-segment group: N fault lanes (``0..N-1``) plus the
    fault-free reference lane ``N``.

    The group's seek is :meth:`FaultRunner.advance` (the scalar
    preamble); from the earliest injection instant the lane core steps
    every lane until none is pending, retiring each through the one
    outcome kernel, or dropping it to the scalar rerun.
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
        #: Injected lanes, i.e. the ones divergence enforcement watches.
        self.checked = set()
        self.injected = [False] * count
        self.replay = [0] * count
        #: ``(class, detail, sim_cycles, replay)`` per retired lane;
        #: ``None`` leaves the record to the scalar rerun.
        self.records = [None] * count
        window = self.config.window
        self.ends = [None if window is None else fault.cycle + window
                     for fault in self.faults]

    @property
    def cycle(self):
        return self.core.cycle

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

    def _run_lanes(self, sim):
        self._adopt(sim)
        core = self.core
        self._attach(sim)
        try:
            self._events()
            while self.pending:
                core.tick()
                assert core.fault is None, (
                    f"reference control path latched {core.fault}")
                self._events()
        finally:
            self._detach(sim)
        return core.cycle

    def _adopt(self, sim):
        """Take over the live mid-flight core as a lane core.

        The lane core shares the caches, predictor, fetch stream and
        in-flight latches of the scalar core object; only the register
        file, CPSR and RAM view become per-lane.  ``sim.core`` is left
        untouched -- the next ``seek()`` restores a fresh scalar core.
        """
        # The coherent flat image -- exactly the view the scalar memory
        # digest hashes.
        self.store = LanePagedMemory(coherent_image(sim.ram, (sim.dcache,)),
                                     self.width, self.ref)
        self._lane_streams(sim.core.syscalls.snapshot(), sim.pinout,
                           len(self.items))
        core = sim.core
        lane = _LaneCore.__new__(_LaneCore)
        for name in RTLCore.__slots__:
            setattr(lane, name, getattr(core, name))
        lane.group = self
        lane.width = self.width
        lane.ref = self.ref
        lane.trace = None  # per-tick signal sampling is scalar-only
        lane.rf = _LaneRegFile(core.rf, self.width)
        lane.ln, lane.lz, lane.lc, lane.lv = self._flag_lanes(core.rf.cpsr)
        self.core = lane

    # -- bus-beat fan-out ----------------------------------------------

    def _attach(self, sim):
        self._dbeat = sim.dcache._beat_listener
        self._ibeat = sim.icache._beat_listener
        sim.dcache._beat_listener = self._wrap(self._dbeat)
        sim.icache._beat_listener = self._wrap(self._ibeat)

    def _detach(self, sim):
        sim.dcache._beat_listener = self._dbeat
        sim.icache._beat_listener = self._ibeat

    def _wrap(self, real):
        """Fan one reference bus beat out to every live lane trace.

        Control (and hence line traffic) is shared, so each lane sees
        the same beat at the same address; only write-back payloads
        carry lane bytes, read through the copy-on-write store."""
        def beat(kind, addr, data, cycle):
            real(kind, addr, data, cycle)
            if not self.pending:
                return
            if kind == "wb":
                n = len(data)
                assert self.store.view_bytes(self.ref, addr, n) == \
                    bytes(data), "reference lane memory out of sync"
                for k in sorted(self.pending):
                    self.keys[k].append(
                        ("wb", addr, self.store.view_bytes(k, addr, n)))
            else:
                key = (kind, addr, b"")
                for k in sorted(self.pending):
                    self.keys[k].append(key)
        return beat

    # -- lane memory ops (called from the lane core's EX2) -------------

    def load(self, addr, size, ref_value):
        """Per-lane view of one D-cache load the reference resolved to
        ``ref_value`` (lanes without a private page share it)."""
        store = self.store
        assert store.read(self.ref, addr, size) == ref_value, \
            "reference lane memory out of sync"
        out = np.full(self.width, ref_value, dtype=np.uint32)
        p = addr >> store._shift
        for k in self.pending:
            if p in store.lane_pages[k]:
                out[k] = store.read(k, addr, size)
        return out

    def store_write(self, addr, size, values):
        """One store instant over every live lane plus the reference
        (the reference write keeps the shared overlay coherent with the
        real cache the scalar access just updated)."""
        mask = (1 << (8 * size)) - 1
        writers = sorted(self.pending)
        writers.append(self.ref)
        if isinstance(values, np.ndarray):
            vals = [int(values[k]) & mask for k in writers]
        else:
            vals = [int(values) & mask] * len(writers)
        self.store.write(writers, [addr] * len(writers), size, vals)

    # -- divergence enforcement ----------------------------------------

    def enforce(self, values):
        """Compare a control-deciding lane value against the reference;
        drop any injected lane that disagrees.  Returns the reference
        scalar (the value the shared control path proceeds with)."""
        arr = np.asarray(values)
        if arr.ndim == 0:
            return int(arr)
        ref_value = int(arr[self.ref])
        for k in list(self.checked):
            if int(arr[k]) != ref_value:
                self._release(k)
        return ref_value

    # -- the campaign event pass ---------------------------------------

    def _events(self):
        """The scalar run loop's check order at one cycle instant, per
        lane: exited -> window end -> watchdog (machine faults never
        reach the vector path -- they require an enforced divergence
        first, which drops the lane)."""
        exited = self.core.exited
        for k in sorted(self.pending):
            if not self._arm(k, exited):
                continue
            if exited:
                self._conclude(k, RunStatus.EXITED)
                continue
            self._expire(k)

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
        entry or CPSR flag -- the structures lanes hold) and put the
        lane under divergence enforcement."""
        fault = self.faults[k]
        self.injected[k] = True
        self.checked.add(k)
        self.replay[k] = self.cycle - self.restore_cycle
        core = self.core
        if fault.structure == "cpsr":
            flags = Flags.unpack(self._flag_pack(k) ^ (1 << fault.bit))
            core.ln[k], core.lz[k], core.lc[k], core.lv[k] = \
                flags.n, flags.z, flags.c, flags.v
        else:  # regfile (banked/spare entries included)
            reg, bit = divmod(fault.bit, 32)
            core.rf.lregs[k, reg] ^= np.uint32(1 << bit)

    def _conclude(self, k, status):
        """Retire lane ``k`` with the outcome kernel's verdict on a run
        stopped with ``status`` (never ``FAULT``: a machine fault drops
        the lane to the scalar path first).  The hardware state is the
        lane's registers, flags and composed memory view (RAM + dirty
        lines)."""
        base = self.cache.trace_base(self.faults[k].cycle)
        fclass, detail = classify_outcome(
            status, self.config.observation, self.golden,
            output=bytes(self.emus[k].output),
            hw_state=lambda: hardware_state(
                self.core.rf.lregs[k, :15], self._flag_pack(k),
                self.store.compose(k)),
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
        """Take lane ``k`` out of the live set and free its pages.  A
        lane released without a record (it left the reference control
        path) is rerun on the scalar path."""
        self.pending.discard(k)
        self.checked.discard(k)
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
        core = self.core
        return ((int(core.ln[k]) << 3) | (int(core.lz[k]) << 2)
                | (int(core.lc[k]) << 1) | int(core.lv[k]))

    def _lane_keys(self, k):
        """Lane ``k``'s whole pinout key list: the shared golden prefix
        at the group start plus its own transactions."""
        return self.prefix_keys + self.keys[k]


class _LaneRegFile:
    """``(width, entries)`` lane view of the register-file macro.

    ``read`` returns a fresh column copy: issued operands are latched
    values and must not alias a later lane injection.  The CPSR lives
    as the lane core's flag arrays; the scalar ``flags()`` API is
    unreachable by construction."""

    __slots__ = ("entries", "width", "lregs", "listener", "flag_listener")

    def __init__(self, rf, width):
        self.entries = rf.entries
        self.width = width
        self.lregs = np.tile(rf.regs, (width, 1))
        self.listener = None
        self.flag_listener = None

    def read(self, index):
        return self.lregs[:, index].copy()

    def write(self, index, value):
        self.lregs[:, index] = valu.u32(value)

    def flags(self):
        raise AssertionError("lane core must use its flag arrays")

    def set_flags(self, flags):
        raise AssertionError("lane core must use its flag arrays")


class _LaneCore(RTLCore):
    """The adopted pipeline with lane-array data paths.

    Never constructed -- :meth:`_RTLLaneGroup._adopt` builds it with
    ``__new__`` and copies the live scalar core slot by slot so all
    in-flight latches, cache/predictor references and FSM state carry
    over mid-cycle.  Control stages (fetch, decode, issue, WB, redirect
    and stall logic) are inherited verbatim; only the value-carrying
    stages are overridden to compute per-lane and to enforce
    control-deciding values against the reference lane."""

    __slots__ = ("group", "width", "ref", "ln", "lz", "lc", "lv")

    def _vec(self, value):
        if isinstance(value, np.ndarray):
            return value
        return np.full(self.width, int(value) & MASK32, dtype=np.uint32)

    def _enforce(self, values):
        return self.group.enforce(values)

    def _ref_scalar(self, value):
        if isinstance(value, np.ndarray):
            return int(value[self.ref])
        return int(value)

    # -- EX1 -----------------------------------------------------------

    def _execute_ex1(self, uop):
        inst = uop.inst
        op = inst.op
        if inst.cond != Cond.AL:
            passed = valu.cond_passed(inst.cond, self.ln, self.lz,
                                      self.lc, self.lv)
            uop.cond_pass = bool(self._enforce(passed))
        else:
            uop.cond_pass = True
        if not uop.cond_pass:
            for arch in uop.dests:
                uop.results[arch] = uop.old_values[arch]
            if op == Op.B and inst.cond != Cond.AL:
                self.predictor.update(uop.pc, taken=False)
            return

        if op in DP_REG_OPS or op in DP_IMM_OPS:
            self._exec_dp(uop, None)
        elif op == Op.MOVW:
            uop.results[inst.rd] = inst.imm & 0xFFFF
        elif op == Op.MOVT:
            old = self._vec(uop.operands[inst.rd])
            uop.results[inst.rd] = (
                (old & np.uint32(0xFFFF))
                | np.uint32((inst.imm & 0xFFFF) << 16))
        elif op in (Op.MUL, Op.MLA):
            uop.results[inst.rd] = valu.multiply(
                op, self._vec(uop.operands[inst.rn]),
                self._vec(uop.operands[inst.rm]),
                self._vec(uop.operands.get(inst.ra, 0)))
        elif op in MEM_SIZE:
            self._agen(uop, None)
        elif op == Op.LDM:
            base = self._enforce(self._vec(uop.operands[inst.rn]))
            uop.operands[inst.rn] = base  # the EX2 walk is scalar
            if base % 4:
                raise SimFault("align-fault", "ldm", addr=base)
            count = bin(inst.reglist).count("1")
            if base + 4 * count > self.ram.size:
                raise SimFault("mem-fault", "ldm beyond RAM", addr=base)
            if inst.writeback and not (inst.reglist & (1 << inst.rn)):
                uop.results[inst.rn] = (base + 4 * count) & MASK32
        elif op == Op.STM:
            base = self._enforce(self._vec(uop.operands[inst.rn]))
            count = bin(inst.reglist).count("1")
            addr = (base - 4 * count) & MASK32
            if addr % 4:
                raise SimFault("align-fault", "stm", addr=addr)
            if addr + 4 * count > self.ram.size:
                raise SimFault("mem-fault", "stm beyond RAM", addr=addr)
            ops = []
            for i in range(16):
                if inst.reglist & (1 << i):
                    ops.append((addr, 4, self._vec(uop.operands[i])))
                    addr += 4
            uop.store_pending = ops
            if inst.writeback:
                uop.results[inst.rn] = (base - 4 * count) & MASK32
        elif op == Op.B:
            uop.actual_next = (uop.pc + inst.imm) & 0xFFFFFFFC
            if inst.cond != Cond.AL:
                self.predictor.update(uop.pc, taken=True)
        elif op == Op.BL:
            uop.results[14] = (uop.pc + 4) & MASK32
            uop.actual_next = (uop.pc + inst.imm) & 0xFFFFFFFC
        elif op == Op.BX:
            uop.actual_next = self._enforce(
                self._vec(uop.operands[inst.rm]) & np.uint32(0xFFFFFFFC))
        elif op in (Op.SVC, Op.NOP, Op.HLT):
            pass
        else:  # pragma: no cover - decode is exhaustive
            raise SimFault("undefined-inst", repr(op), addr=uop.pc)

    def _exec_dp(self, uop, flags):
        inst = uop.inst
        c_in = self.lc
        v_in = self.lv
        if inst.op in DP_IMM_OPS:
            op2 = np.full(self.width, inst.imm & MASK32, dtype=np.uint32)
            shifter_carry = c_in
        else:
            value = self._vec(uop.operands[inst.rm])
            if inst.shift_reg is not None:
                amount = (self._vec(uop.operands[inst.shift_reg])
                          & np.uint32(0xFF))
            else:
                amount = inst.shift_amount
            op2, shifter_carry = valu.barrel_shift(
                value, inst.shift_kind, amount, c_in)
        op = DP_REG_FORM.get(inst.op, inst.op)
        if op in UNARY_OPS:
            rn_value = np.zeros(self.width, dtype=np.uint32)
        else:
            rn_value = self._vec(uop.operands[inst.rn])
        result, n, z, c, v = valu.dp_compute(op, rn_value, op2, c_in,
                                             v_in, shifter_carry)
        if inst.s or op in COMPARE_OPS:
            # Fresh writable copies: dp_compute may hand back broadcast
            # views, and injection writes flag elements in place.
            self.ln = np.array(n, dtype=bool)
            self.lz = np.array(z, dtype=bool)
            self.lc = np.array(c, dtype=bool)
            self.lv = np.array(v, dtype=bool)
        if op not in COMPARE_OPS:
            if inst.rd == _PC:
                uop.actual_next = self._enforce(
                    result & np.uint32(0xFFFFFFFC))
            else:
                uop.results[inst.rd] = result

    def _agen(self, uop, flags):
        inst = uop.inst
        size = MEM_SIZE[inst.op]
        base = self._vec(uop.operands[inst.rn]).astype(np.int64)
        if inst.op in _IMM_MEM_OPS:
            offset = np.full(self.width, inst.imm, dtype=np.int64)
        else:
            shifted, _ = valu.barrel_shift(
                self._vec(uop.operands[inst.rm]), inst.shift_kind,
                inst.shift_amount, self.lc)
            offset = shifted.astype(np.int64)
        addr_vec = (base + offset) & MASK32 if inst.pre else base
        addr = self._enforce(addr_vec)
        if addr % size:
            raise SimFault("align-fault", f"{size}-byte access",
                           addr=addr)
        if addr + size > self.ram.size:
            raise SimFault("mem-fault", "access beyond RAM", addr=addr)
        if inst.op in STORE_OPS:
            uop.store_pending = [(addr, size,
                                  self._vec(uop.operands[inst.rd]))]
        else:
            uop.store_pending = [(addr, size, 0)]
        if inst.writeback or not inst.pre:
            if not (inst.op in LOAD_OPS and inst.rn == inst.rd):
                uop.results[inst.rn] = (
                    (base + offset) & MASK32).astype(np.uint32)

    # -- EX2 -----------------------------------------------------------

    def _stage_ex2(self):
        for uop in self.ex2:
            try:
                self._execute_ex2(uop)
            except SimFault as exc:
                self.fault = exc
                return
            if self.exited:
                return
        self.ex2 = []
        if self.mul_uop is not None:
            self.mul_remaining -= 1
            if self.mul_remaining <= 0:
                uop = self.mul_uop
                self.wb.append(uop)
                if self.mul_sets_flags and uop.cond_pass:
                    result = self._vec(uop.results.get(uop.inst.rd, 0))
                    self.ln = (result & np.uint32(0x80000000)) != 0
                    self.lz = result == 0
                self.mul_uop = None
                self.mul_sets_flags = False

    def _exec_mem_ex2(self, uop):
        inst = uop.inst
        op = inst.op
        group = self.group
        if op == Op.LDM:
            addr = uop.operands[inst.rn]  # scalarized at EX1
            for i in range(16):
                if inst.reglist & (1 << i):
                    value, _ = self.dcache.access(addr, 4, write=False,
                                                  cycle=self.cycle)
                    self._charge_dcache()
                    lane_values = group.load(addr, 4, value)
                    if i == _PC:
                        target = self._enforce(
                            lane_values & np.uint32(0xFFFFFFFC))
                        self._deep_redirect(uop, target)
                    else:
                        uop.results[i] = lane_values
                    addr += 4
            return
        if op == Op.STM:
            for addr, size, value in uop.store_pending:
                self.dcache.access(addr, size, write=True,
                                   value=self._ref_scalar(value),
                                   cycle=self.cycle)
                self._charge_dcache()
                group.store_write(addr, size, value)
            return
        size = MEM_SIZE[op]
        if op in LOAD_OPS:
            addr = uop.store_pending[0][0]  # agen result from EX1
            value, _ = self.dcache.access(addr, size, write=False,
                                          cycle=self.cycle)
            self._charge_dcache()
            lane_values = group.load(addr, size, value)
            if inst.rd == _PC:
                target = self._enforce(
                    lane_values & np.uint32(0xFFFFFFFC))
                self._deep_redirect(uop, target)
            else:
                uop.results[inst.rd] = lane_values
        else:
            addr, size_, value = uop.store_pending[0]
            self.dcache.access(addr, size_, write=True,
                               value=self._ref_scalar(value),
                               cycle=self.cycle)
            self._charge_dcache()
            group.store_write(addr, size_, value)

    def _exec_svc(self, uop):
        group = self.group
        # Syscall operands decide kernel control flow (and the memory
        # the handler walks): enforce them, then drive the reference
        # emulator through the real D-cache for timing and beats.
        operands = {i: self._enforce(self._vec(uop.operands[i]))
                    for i in sorted(uop.operands)}

        def read_reg(index):
            return operands.get(index, 0)

        def read_byte(addr):
            value, _ = self.dcache.access(addr, 1, write=False,
                                          cycle=self.cycle)
            self._charge_dcache()
            return value

        try:
            result = self.syscalls.handle(uop.inst.imm, read_reg,
                                          read_byte)
        except SyscallError as exc:
            raise SimFault("syscall-error", str(exc),
                           addr=uop.pc) from exc
        results = np.full(self.width, result & MASK32, dtype=np.uint32)
        for k in sorted(group.pending):
            def lane_read_byte(addr, _k=k):
                return group.store.read_byte(_k, addr)
            try:
                lane_result = group.emus[k].handle(
                    uop.inst.imm, read_reg, lane_read_byte)
            except (SyscallError, SimFault):
                # A lane-only syscall failure is control divergence the
                # enforced operands could not see (corrupted buffer
                # bytes): drop to the scalar path.
                group._release(k)
                continue
            results[k] = np.uint32(lane_result & MASK32)
        uop.results[0] = results
        if self.syscalls.exited:
            self.exited = True
