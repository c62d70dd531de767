"""The architectural-emulator backend (the taxonomy's fastest tier).

The paper's taxonomy (SS I) names a tier below microarchitectural
simulation: software-level / architectural emulation without hardware
details.  This backend makes that tier a first-class campaign target by
wrapping the golden interpreter (:class:`repro.isa.interp.Interpreter`)
in the shared simulator protocol:

* **cycle-proxy accounting** -- an ISS has no timing model, so the
  "cycle" is a proxy: ``cycles_per_inst`` (CPI 1 by default) per retired
  instruction.  Windows and checkpoints work unchanged; absolute timing
  claims do not exist at this tier, exactly as in the real methodology.
* **pinout** -- with no cache hierarchy the core pins *are* the memory
  interface; the emulator publishes every store as a write-back
  transaction, which is the closest architectural analogue of the
  traffic-leaving-the-core observation point.
* **checkpoint/restore** -- full architectural state (registers, flags,
  PC, RAM, syscall context); drains are no-ops because there is no
  pipeline to empty.
* **injection** -- the architectural register file (the 15 live
  registers r0-r14; the PC lives outside the file) and the 4 CPSR flag
  bits.

A fault at this tier can only land in architectural state -- that
blindness to microarchitectural structures is the taxonomy's trade-off
the paper quantifies one level up.
"""

from repro.errors import SimFault
from repro.isa.interp import Interpreter
from repro.memory.bus import Transaction
from repro.sim.base import SimulatorBase


class ArchConfig:
    """Knobs of the architectural emulator."""

    def __init__(self, cycles_per_inst=1):
        if cycles_per_inst < 1:
            raise ValueError("cycles_per_inst must be >= 1")
        #: The cycle proxy: emulated cycles charged per instruction.
        self.cycles_per_inst = cycles_per_inst

    def __repr__(self):
        return f"ArchConfig(cycles_per_inst={self.cycles_per_inst})"


class _ArchCore:
    """Adapts :class:`Interpreter` to the core protocol of the base.

    One ``tick()`` retires one instruction and charges
    ``cycles_per_inst`` proxy cycles; faults raised by the interpreter
    are latched instead of propagating, matching the hardware models.
    """

    def __init__(self, interp, cycles_per_inst):
        self.interp = interp
        self.cycles_per_inst = cycles_per_inst
        self.cycle = 0
        self.fault = None
        self.draining = False
        self.mispredicts = 0

    @property
    def icount(self):
        return self.interp.inst_count

    @icount.setter
    def icount(self, value):
        self.interp.inst_count = value

    @property
    def exited(self):
        return self.interp.halted

    @exited.setter
    def exited(self, value):
        self.interp.halted = value

    @property
    def pc(self):
        return self.interp.pc

    @pc.setter
    def pc(self, value):
        self.interp.pc = value

    @property
    def syscalls(self):
        return self.interp.syscalls

    def tick(self):
        try:
            self.interp.step()
        except SimFault as exc:
            self.fault = exc
        self.cycle += self.cycles_per_inst

    def quiesced(self):
        # No pipeline: the machine is always architecturally quiescent.
        return True


class ArchSim(SimulatorBase):
    """Instruction-set emulator with fault injection (``arch`` tier)."""

    LEVEL = "arch"

    #: No pipeline: drains are no-ops and the machine is always
    #: quiescent, so mid-run state digests compare exactly against
    #: golden boundary digests (enables campaign early-stop).
    DRAIN_FREE = True

    #: ``_ArchCore.tick`` executes the instruction *then* advances the
    #: cycle, so when a run pauses at a stop cycle the events stamped
    #: with that cycle have not happened yet (unlike the hardware
    #: models, which advance first).  The fault pruner keys its
    #: post-injection event query off this.
    TRACE_EVENTS_AT_STOP_EXECUTED = False

    INJECTABLE = {
        "regfile": "architectural register file (15 x 32 bits, r0-r14)",
        "cpsr": "NZCV status flags",
    }

    @classmethod
    def default_config(cls):
        return ArchConfig()

    def _build(self):
        interp = Interpreter(self.program)
        # The interpreter builds its own RAM; adopt it so the shared
        # checkpoint machinery and observation points see one memory.
        self.ram = interp.ram
        self.core = _ArchCore(interp, self.config.cycles_per_inst)
        interp.store_listener = self._publish_store

    def _publish_store(self, addr, size, value):
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        self.pinout.append(Transaction("wb", addr, data, self.core.cycle))

    # ------------------------------------------------------------------
    # access tracing (fault pruning)
    # ------------------------------------------------------------------

    def _install_trace_listeners(self, trace):
        trace.register("regfile", 32)
        trace.register("cpsr", 1)

        def reg_event(index, write):
            if self._trace_pause == 0:
                trace.record("regfile", index, self.core.cycle, write)

        def flag_event(read_mask, write_mask):
            if self._trace_pause:
                return
            cycle = self.core.cycle
            for bit in range(4):
                if read_mask & (1 << bit):
                    trace.record("cpsr", bit, cycle, False)
            for bit in range(4):
                if write_mask & (1 << bit):
                    trace.record("cpsr", bit, cycle, True)

        interp = self.core.interp
        interp.regs.listener = reg_event
        interp.flag_listener = flag_event

    def _remove_trace_listeners(self):
        interp = self.core.interp
        interp.regs.listener = None
        interp.flag_listener = None

    def _install_pc_listener(self, trace):
        core = self.core

        def pc_event(pc):
            # Stamped with the pre-increment cycle: the instruction at
            # ``pc`` executes during the tick that starts at this stop
            # cycle, matching TRACE_EVENTS_AT_STOP_EXECUTED=False.
            if self._trace_pause == 0:
                trace.record(core.cycle, pc)

        core.interp.pc_listener = pc_event

    def _remove_pc_listener(self):
        self.core.interp.pc_listener = None

    # ------------------------------------------------------------------
    # architectural visibility
    # ------------------------------------------------------------------

    def arch_state(self):
        """Committed architectural state (registers r0-r14 + flags)."""
        interp = self.core.interp
        regs = [interp.regs.read(i) for i in range(15)]
        return {"regs": regs, "flags": interp.flags.pack(),
                "pc": interp.pc}

    # ------------------------------------------------------------------
    # checkpoint hooks
    # ------------------------------------------------------------------

    def _restart_pc(self):
        return self.core.interp.pc

    def _capture_state(self):
        interp = self.core.interp
        return {
            "regs": interp.regs.snapshot(),
            "flags": interp.flags.pack(),
        }

    def _restore_state(self, cp):
        interp = self.core.interp
        interp.regs.restore(cp["regs"])
        interp.flags = interp.flags.unpack(cp["flags"])

    def _set_restart_point(self, pc, cycle):
        # The interpreter's PC is the restart point itself; nothing like
        # a committed-PC shadow or a last-commit watermark exists here.
        pass

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def _resolve_special(self, structure):
        if structure == "regfile":
            return self.core.interp.regs, None
        if structure == "cpsr":
            return self.core.interp, "cpsr"
        return None

    def _target_bits(self, holder, array):
        if array == "cpsr":
            return 4
        return super()._target_bits(holder, array)

    def _flip(self, holder, array, bit_index):
        if array == "cpsr":
            interp = self.core.interp
            interp.flags = interp.flags.unpack(
                interp.flags.pack() ^ (1 << bit_index))
            return
        super()._flip(holder, array, bit_index)
