"""The arch-tier lane backend: N faulty ISS runs in one numpy pass.

The scalar campaign path replays the interpreter once per fault:
restore the nearest golden checkpoint, advance to the injection
instant, flip one bit and run the post-injection tail.  For the arch
tier every one of those replays walks the *same* golden instruction
stream, because an injected run only leaves the golden control path at
the (rare) instruction whose operands the flipped bit actually reaches.
The lane engine exploits that: it groups faults whose injection
instants share a checkpoint segment, seeks *once*, and executes all
lanes in lockstep --

* register file and CPSR state live in ``(N+1, cells)`` numpy arrays
  (lane ``N`` is the fault-free **reference** lane that supplies the
  shared fetch/decode stream); lane RAM views share one copy-on-write
  :class:`~repro.batch.memory.LanePagedMemory` (golden base image +
  reference overlay + per-lane private pages), so per-lane memory is
  O(divergent pages), not O(footprint);
* each decoded golden instruction is applied across all live convergent
  lanes with masked scatters (per-lane condition codes, per-lane
  barrel-shifter carries, per-lane memory faults);
* a lane whose PC leaves the reference PC -- the divergent minority --
  is exported to a private scalar :class:`~repro.isa.interp
  .Interpreter` seeded from its lane state and stepped per-cycle from
  then on (a diverged lane never re-vectorizes);
* lanes retire early exactly where the scalar path stops them: at a
  golden-digest match (Masked, the PR 3 early-stop argument), at their
  syscall exit, window end, latched machine fault or watchdog deadline.

Every event -- injection, digest comparison, classification -- happens
at the same simulated cycle, in the same order, on the same state as
the scalar :meth:`FaultRunner.run_one`, and classification is the same
outcome kernel (:mod:`repro.batch.engine`), so the per-fault records
are bit-identical; ``tests/test_batch_equivalence.py`` pins that.

The engine's deterministic cost metrics are :attr:`ArchLaneEngine
.batch_cycles` (global stepped cycles summed over groups -- one shared
replay + one shared tail per group, instead of one per fault; the
``batch_speedup`` bench asserts the scalar-vs-batch cycle ratio) and
:attr:`ArchLaneEngine.peak_lane_bytes` (high-water copy-on-write page
bytes; the peak-lane-memory bench asserts sub-linear growth in N).
"""

import bisect

import numpy as np

from repro.batch.engine import LaneEngineBase, LaneGroup
from repro.batch.memory import LanePagedMemory
from repro.errors import SimFault
from repro.injection.classify import FaultClass, RECONVERGED
from repro.isa import valu
from repro.isa.flags import Flags
from repro.isa.instructions import (
    COMPARE_OPS,
    DP_IMM_OPS,
    DP_REG_FORM,
    DP_REG_OPS,
    LOAD_OPS,
    MEM_SIZE,
    Op,
    UNARY_OPS,
)
from repro.isa.interp import Interpreter
from repro.isa.syscalls import SyscallError
from repro.sim.base import RunStatus, _crc

MASK32 = 0xFFFFFFFF

#: Immediate-offset memory forms (register forms shift ``rm`` instead).
_IMM_MEM_OPS = (Op.LDR, Op.STR, Op.LDRB, Op.STRB, Op.LDRH, Op.STRH)


class ArchLaneEngine(LaneEngineBase):
    """Drive a :class:`FaultRunner`'s faults through vectorized groups.

    ``lanes`` is the fault-lane width N; each group additionally
    carries the fault-free reference lane.  ``run()`` returns records
    positionally aligned with ``specs`` (the caller's sample order).
    """

    def run(self, specs):
        # Group faults by injection instant so each group's lanes share
        # one seek and overlap their post-injection windows.
        order = sorted(range(len(specs)),
                       key=lambda i: (specs[i].cycle, i))
        chunks = [order[start:start + self.lanes]
                  for start in range(0, len(order), self.lanes)]
        return self._run_groups(_LaneGroup, specs, chunks)


class _LaneGroup(LaneGroup):
    """One vectorized group: N fault lanes + the reference lane."""

    def _run_lanes(self, sim):
        cp = sim.checkpoint()
        width = self.width
        self.program = sim.program
        self.decode = self.program.decode_table()
        self.cpi = sim.core.cycles_per_inst
        self.regs = np.tile(np.array(cp["regs"], dtype=np.uint32),
                            (width, 1))
        self.n, self.z, self.c, self.v = self._flag_lanes(cp["flags"])
        self.pc = np.full(width, cp["pc"], dtype=np.uint32)
        #: All lane RAM views share the checkpoint image copy-on-write;
        #: the reference lane's stores update the shared overlay, fault
        #: lanes privatize pages only where their bytes actually differ.
        self.store = LanePagedMemory(cp["ram"], width, self.ref)
        self.ram_size = self.store.size
        # The reference lane runs its own syscalls and stores here.
        self._lane_streams(cp["syscalls"], cp["pinout"], width)
        self.halted = np.zeros(width, dtype=bool)
        self.sfaults = [None] * width
        self.diverged = {}
        self.cycle = cp["cycle"]
        self.icount = cp["icount"]
        # Per fault-lane early-stop bookkeeping.
        self.early = (self.config.early_stop and type(sim).DRAIN_FREE
                      and self.cache.collect_digests)
        self.check = [False] * len(self.faults)
        self.nb = [0] * len(self.faults)
        self._events()
        while self.pending:
            self._step()
        return self.cycle

    def _step(self):
        """One global lockstep cycle: vector step the convergent lanes
        at the reference PC, scalar-step the diverged ones, advance the
        clock, then fire the per-lane event pass."""
        convergent = [k for k in self.pending if k not in self.diverged]
        if convergent and not self.halted[self.ref]:
            self._vector_step(convergent)
        for k in self.pending:
            interp = self.diverged.get(k)
            if interp is not None:
                try:
                    interp.step()
                except SimFault as exc:
                    self.sfaults[k] = exc
        self.cycle += self.cpi
        self._events()
        self._sync_divergence()

    def _sync_divergence(self):
        """Export lanes that left the golden control path.

        A convergent lane executes the instruction at the reference PC,
        so the moment its PC differs it must fall back to private
        scalar stepping before the next fetch.  When the reference lane
        halts there is no shared stream left at all: every surviving
        convergent lane (they all took a different path out of the
        golden exit) is exported.
        """
        survivors = [k for k in self.pending
                     if k not in self.diverged and not self.halted[k]]
        if self.halted[self.ref]:
            for k in survivors:
                self._export(k)
            return
        ref_pc = self.pc[self.ref]
        for k in survivors:
            if self.pc[k] != ref_pc:
                self._export(k)

    def _export(self, k):
        """Hand lane ``k`` its own scalar Interpreter, seeded from the
        lane arrays -- the exact state a scalar run would hold here.
        Its dense RAM image is composed once from the paged store, and
        the lane leaves the copy-on-write live set."""
        interp = Interpreter(self.program)
        interp.ram.restore(self.store.compose(k))
        interp.regs.restore([int(x) for x in self.regs[k]])
        interp.flags = Flags.unpack(self._flag_pack(k))
        interp.pc = int(self.pc[k])
        interp.inst_count = self.icount
        interp.syscalls = self.emus[k]
        keys = self.keys[k]

        def publish(addr, size, value, _keys=keys):
            data = (value & ((1 << (8 * size)) - 1)).to_bytes(size,
                                                              "little")
            _keys.append(("wb", addr, data))

        interp.store_listener = publish
        self.diverged[k] = interp
        self.store.release(k)

    # -- the campaign event pass -------------------------------------------

    def _events(self):
        """The scalar run loop's check order at one cycle instant, per
        lane: exited -> machine fault -> digest boundary -> window end
        -> watchdog; uninjected lanes inject (or retire into dead time)
        first, exactly like ``run_one``'s pre-injection advance."""
        for k in sorted(self.pending):
            halted = self._lane_halted(k)
            if not self._arm(k, halted):
                continue
            if halted:
                self._conclude(k, RunStatus.EXITED)
                continue
            latched = self.sfaults[k]
            if latched is not None:
                self._conclude(k, RunStatus.FAULT, machine_fault=latched)
                continue
            if self.check[k]:
                self._boundary_events(k, self.cycle)
                if k not in self.pending:
                    continue
            self._expire(k)

    def _boundary_events(self, k, cyc):
        """The early-stop comparator at golden checkpoint boundaries
        (as in ``FaultRunner._finish``: boundaries at or past the
        window end are never compared)."""
        cache = self.cache
        end = self.ends[k]
        while (self.nb[k] < cache.count
               and cache.cycles[self.nb[k]] <= cyc):
            boundary = cache.cycles[self.nb[k]]
            if end is not None and boundary >= end:
                self.check[k] = False
                return
            matched = (boundary == cyc
                       and self._digest(k) == cache.digests[self.nb[k]])
            self.nb[k] += 1
            if matched:
                self._retire(k, FaultClass.MASKED, RECONVERGED)
                return

    def _inject(self, k):
        # Pre-injection lanes never diverge: the flip lands in the lane
        # arrays.
        super()._inject(k)
        if self.early:
            self.check[k] = True
            self.nb[k] = bisect.bisect_right(self.cache.cycles,
                                             self.faults[k].cycle)

    def _release(self, k):
        super()._release(k)
        self.diverged.pop(k, None)

    # -- per-lane observation ----------------------------------------------

    def _lane_arrays(self):
        return self.regs, self.n, self.z, self.c, self.v

    def _lane_halted(self, k):
        interp = self.diverged.get(k)
        if interp is not None:
            return interp.halted
        return bool(self.halted[k])

    def _lane_state(self, k):
        """Lane ``k``'s ``(regs r0-r14, flag pack, pc, icount, RAM
        image)``: from its private interpreter once diverged, else from
        the lane arrays (the RAM image composed from the paged store --
        page-granular storage with full-image observation)."""
        interp = self.diverged.get(k)
        if interp is not None:
            return (interp.regs.snapshot()[:15], interp.flags.pack(),
                    interp.pc, interp.inst_count, interp.ram.snapshot())
        return (self.regs[k, :15], self._flag_pack(k), int(self.pc[k]),
                self.icount, self.store.compose(k))

    def _arch_view(self, k):
        regs, flags, _, _, ram = self._lane_state(k)
        return regs, flags, ram

    def _digest(self, k):
        """Bit-compatible with ``SimulatorBase.state_digest()`` on the
        arch backend (a live, unfaulted, unexited lane), so the digest
        early-stop argument (DESIGN.md) is unchanged."""
        regs, flags, pc, icount, ram = self._lane_state(k)
        return (self.cycle, icount, False, True,
                tuple(int(r) for r in regs), flags, pc, _crc(ram),
                self.emus[k].snapshot(), _crc(self._lane_keys(k)), ())

    # -- vectorized execution ----------------------------------------------

    def _read(self, index, lanes, inst):
        """``Interpreter._read_reg``: r15 reads as the fetch address
        plus 8 on every lane."""
        if index == 15:
            return np.full(lanes.size, (inst.addr + 8) & MASK32,
                           dtype=np.uint32)
        return self.regs[lanes, index]

    def _write(self, index, lanes, values):
        """``Interpreter._write_reg``: a write to PC is a branch."""
        if index == 15:
            self.pc[lanes] = np.asarray(values,
                                        dtype=np.uint32) & np.uint32(
                                            0xFFFFFFFC)
        else:
            self.regs[lanes, index] = values

    def _latch(self, k, exc):
        if k == self.ref:
            raise AssertionError(
                f"reference lane left the golden path: {exc}")
        self.sfaults[k] = exc

    def _latch_all(self, lanes, exc):
        for k in lanes.tolist():
            self._latch(k, exc)

    def _latch_mem_faults(self, lanes, addr, size, store):
        """Apply the scalar align-then-range check order per lane;
        returns the boolean keep-mask of lanes that did not fault."""
        align_bad = (addr % size != 0) if size > 1 else np.zeros(
            lanes.size, dtype=bool)
        oob = (addr + size) > self.ram_size
        word = "store" if store else "load"
        for pos in np.flatnonzero(align_bad).tolist():
            self._latch(int(lanes[pos]),
                        SimFault("align-fault", f"{size}-byte {word}",
                                 addr=int(addr[pos])))
        for pos in np.flatnonzero(oob & ~align_bad).tolist():
            self._latch(int(lanes[pos]),
                        SimFault("mem-fault",
                                 f"access of {size} bytes outside RAM",
                                 addr=int(addr[pos])))
        return ~(align_bad | oob)

    def _ram_read(self, lanes, addr, size):
        return self.store.gather(lanes.tolist(), addr.tolist(), size)

    def _ram_write(self, lanes, addr, size, value):
        mask = (1 << (8 * size)) - 1
        writers = lanes.tolist()
        addrs = addr.tolist()
        values = [int(v) & mask for v in value.tolist()]
        self.store.write(writers, addrs, size, values)
        for pos, k in enumerate(writers):
            data = values[pos].to_bytes(size, "little")
            self.keys[k].append(("wb", addrs[pos], data))

    def _vector_step(self, convergent):
        lanes = np.array(convergent + [self.ref], dtype=np.intp)
        inst = self.decode.get(int(self.pc[self.ref]))
        if inst is None:  # the reference replays the golden trajectory
            raise AssertionError(
                f"reference lane fetched outside text at "
                f"{int(self.pc[self.ref]):#010x}")
        self.icount += 1
        if inst.cond != 14:
            passed = valu.cond_passed(inst.cond, self.n[lanes],
                                      self.z[lanes], self.c[lanes],
                                      self.v[lanes])
            doers = lanes[passed]
        else:
            doers = lanes
        self.pc[lanes] = np.uint32((inst.addr + 4) & MASK32)
        if doers.size:
            self._execute(inst, doers)

    def _execute(self, inst, doers):
        op = inst.op
        if op in DP_REG_OPS or op in DP_IMM_OPS:
            self._exec_dp(inst, doers)
        elif op == Op.MOVW:
            self._write(inst.rd, doers, np.uint32(inst.imm & 0xFFFF))
        elif op == Op.MOVT:
            old = self._read(inst.rd, doers, inst)
            self._write(inst.rd, doers,
                        (old & np.uint32(0xFFFF))
                        | np.uint32((inst.imm & 0xFFFF) << 16))
        elif op in (Op.MUL, Op.MLA):
            result = valu.multiply(op,
                                   self._read(inst.rn, doers, inst),
                                   self._read(inst.rm, doers, inst),
                                   self._read(inst.ra, doers, inst))
            if inst.s:
                self.n[doers] = ((result >> np.uint32(31)) & 1).astype(
                    bool)
                self.z[doers] = result == 0
            self._write(inst.rd, doers, result)
        elif op in MEM_SIZE:
            self._exec_mem(inst, doers)
        elif op == Op.LDM:
            self._exec_ldm(inst, doers)
        elif op == Op.STM:
            self._exec_stm(inst, doers)
        elif op == Op.B:
            self.pc[doers] = np.uint32((inst.addr + inst.imm)
                                       & 0xFFFFFFFC)
        elif op == Op.BL:
            self.regs[doers, 14] = np.uint32((inst.addr + 4) & MASK32)
            self.pc[doers] = np.uint32((inst.addr + inst.imm)
                                       & 0xFFFFFFFC)
        elif op == Op.BX:
            self.pc[doers] = (self._read(inst.rm, doers, inst)
                              & np.uint32(0xFFFFFFFC))
        elif op == Op.SVC:
            self._exec_svc(inst, doers)
        elif op == Op.NOP:
            pass
        elif op == Op.HLT:
            self._latch_all(doers, SimFault("halt-trap",
                                            "executed HLT/pool word",
                                            addr=inst.addr))
        else:
            self._latch_all(doers, SimFault("undefined-inst", repr(op),
                                            addr=inst.addr))

    def _exec_dp(self, inst, doers):
        c_in = self.c[doers]
        v_in = self.v[doers]
        if inst.op in DP_IMM_OPS:
            op2 = np.full(doers.size, inst.imm & MASK32, dtype=np.uint32)
            shifter_carry = c_in
        else:
            value = self._read(inst.rm, doers, inst)
            if inst.shift_reg is not None:
                amount = (self._read(inst.shift_reg, doers, inst)
                          & np.uint32(0xFF))
            else:
                amount = inst.shift_amount
            op2, shifter_carry = valu.barrel_shift(
                value, inst.shift_kind, amount, c_in)
        op = DP_REG_FORM.get(inst.op, inst.op)
        if op in UNARY_OPS:
            rn_value = np.zeros(doers.size, dtype=np.uint32)
        else:
            rn_value = self._read(inst.rn, doers, inst)
        result, n, z, c, v = valu.dp_compute(op, rn_value, op2, c_in,
                                             v_in, shifter_carry)
        if inst.s or op in COMPARE_OPS:
            self.n[doers] = n
            self.z[doers] = z
            self.c[doers] = c
            self.v[doers] = v
        if op not in COMPARE_OPS:
            self._write(inst.rd, doers, result)

    def _exec_mem(self, inst, doers):
        size = MEM_SIZE[inst.op]
        base = self._read(inst.rn, doers, inst).astype(np.int64)
        if inst.op in _IMM_MEM_OPS:
            offset = np.full(doers.size, inst.imm, dtype=np.int64)
        else:
            shifted, _ = valu.barrel_shift(
                self._read(inst.rm, doers, inst), inst.shift_kind,
                inst.shift_amount, self.c[doers])
            offset = shifted.astype(np.int64)
        addr = (base + offset) & MASK32 if inst.pre else base
        load = inst.op in LOAD_OPS
        keep = self._latch_mem_faults(doers, addr, size,
                                      store=not load)
        ok = doers[keep]
        if ok.size:
            addr_ok = addr[keep]
            if load:
                value = self._ram_read(ok, addr_ok, size)
                self._write(inst.rd, ok, value)
            else:
                self._ram_write(ok, addr_ok, size,
                                self._read(inst.rd, ok, inst))
            if inst.writeback or not inst.pre:
                wb_value = ((base[keep] + offset[keep])
                            & MASK32).astype(np.uint32)
                if inst.rn != inst.rd or not load:
                    self._write(inst.rn, ok, wb_value)

    def _exec_ldm(self, inst, doers):
        base = self._read(inst.rn, doers, inst)
        # Interior addresses advance unmasked, exactly like the scalar
        # loop's Python-int `addr += 4` (an overflowing base walks off
        # the end of RAM rather than wrapping).
        addr = base.astype(np.uint64)
        alive = np.ones(doers.size, dtype=bool)
        count = 0
        for i in range(16):
            if not inst.reglist & (1 << i):
                continue
            lanes = doers[alive]
            if lanes.size:
                keep = self._latch_mem_faults(
                    lanes, addr[alive].astype(np.int64), 4,
                    store=False)
                alive[alive] = keep
                lanes = doers[alive]
                if lanes.size:
                    value = self._ram_read(
                        lanes, addr[alive].astype(np.int64), 4)
                    self._write(i, lanes, value)
            addr += np.uint64(4)
            count += 1
        if inst.writeback and not (inst.reglist & (1 << inst.rn)):
            lanes = doers[alive]
            if lanes.size:
                # The scalar path writes through RegisterFile.write
                # directly (no branch, even for rn=15) and masks there.
                self.regs[lanes, inst.rn] = (
                    (base[alive].astype(np.uint64)
                     + np.uint64(4 * count)) & MASK32).astype(np.uint32)

    def _exec_stm(self, inst, doers):
        base = self._read(inst.rn, doers, inst)
        count = bin(inst.reglist).count("1")
        start = ((base.astype(np.int64) - 4 * count)
                 & MASK32).astype(np.uint64)
        addr = start.copy()
        alive = np.ones(doers.size, dtype=bool)
        for i in range(16):
            if not inst.reglist & (1 << i):
                continue
            lanes = doers[alive]
            if lanes.size:
                keep = self._latch_mem_faults(
                    lanes, addr[alive].astype(np.int64), 4,
                    store=True)
                alive[alive] = keep
                lanes = doers[alive]
                if lanes.size:
                    self._ram_write(lanes, addr[alive].astype(np.int64),
                                    4, self._read(i, lanes, inst))
            addr += np.uint64(4)
        if inst.writeback:
            lanes = doers[alive]
            if lanes.size:
                # Raw RegisterFile.write semantics, like LDM writeback.
                self.regs[lanes, inst.rn] = start[alive].astype(
                    np.uint32)

    def _exec_svc(self, inst, doers):
        for k in doers.tolist():
            self._lane_svc(inst, k, ref=k == self.ref)

    def _lane_svc(self, inst, k, ref):
        def read_reg(i, _k=k):
            return int(self.regs[_k, i])

        def read_byte(a, _k=k):
            if a < 0 or a + 1 > self.ram_size:
                raise SimFault("mem-fault",
                               "access of 1 bytes outside RAM", addr=a)
            return self.store.read_byte(_k, a)

        try:
            result = self.emus[k].handle(inst.imm, read_reg, read_byte)
        except (SyscallError, SimFault) as exc:
            fault = exc if isinstance(exc, SimFault) else SimFault(
                "syscall-error", str(exc), addr=inst.addr)
            if ref:
                raise AssertionError(
                    f"reference lane raised {fault}") from exc
            self.sfaults[k] = fault
            return
        self.regs[k, 0] = np.uint32(result & MASK32)
        if self.emus[k].exited:
            self.halted[k] = True
