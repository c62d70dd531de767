"""Public RT-level simulator API (the "NCSIM + Safety Verifier" tier).

Implements the same :class:`repro.sim.base.SimulatorBase` protocol as
the other levels -- same run control, checkpointing, pinout and
fault-injection interface -- so the campaign engine in
:mod:`repro.injection` is generic over the abstraction level, which is
the paper's whole experimental design.  This shell adds only the RTL
machine construction, the flip-flop state hooks and signal tracing.
"""

from repro.memory.cache import CacheConfig
from repro.rtl.arrays import RTLRegisterFile
from repro.rtl.cache_rtl import RTLCache
from repro.rtl.config import RTLConfig
from repro.rtl.core import RTLCore
from repro.rtl.trace import SignalTrace
from repro.sim.base import RunStatus, SimulatorBase
from repro.uarch.branch import BranchPredictor

__all__ = ["RTLSim", "RunStatus"]


class RTLSim(SimulatorBase):
    """Cycle-by-cycle RT-level Cortex-A9-class simulator."""

    LEVEL = "rtl"

    INJECTABLE = {
        "regfile": "register-file macro (56 x 32 flops: user + banked/spare)",
        "cpsr": "NZCV status flops",
        "l1d.data": "L1D data array",
        "l1d.tag": "L1D tag array",
        "l1d.valid": "L1D valid bits",
        "l1d.dirty": "L1D dirty bits",
        "l1d.age": "L1D replacement state",
        "l1i.data": "L1I data array",
        "l1i.tag": "L1I tag array",
        "l1i.valid": "L1I valid bits",
    }

    @classmethod
    def default_config(cls):
        return RTLConfig()

    def _build(self):
        cfg = self.config
        layout = self.program.layout
        self.ram = self._make_ram()
        bus_event = self._bus_listener()
        self.dcache = RTLCache(
            "l1d",
            CacheConfig(cfg.dcache_size, cfg.dcache_ways, cfg.line_size),
            self.ram, cfg, bus_listener=bus_event,
        )
        self.icache = RTLCache(
            "l1i",
            CacheConfig(cfg.icache_size, cfg.icache_ways, cfg.line_size),
            self.ram, cfg, bus_listener=bus_event,
        )
        self.predictor = BranchPredictor(cfg.predictor_entries,
                                         cfg.ras_entries)
        self.rf = RTLRegisterFile()
        self.core = RTLCore(
            cfg, self.program, self.ram, self.icache, self.dcache,
            self.predictor, self.rf,
        )
        if cfg.trace_signals:
            self.trace = SignalTrace()
            self.core.trace = self.trace
        else:
            self.trace = None
        self.rf.write(13, layout.stack_top)

    # ------------------------------------------------------------------
    # access tracing (fault pruning)
    # ------------------------------------------------------------------

    def _install_trace_listeners(self, trace):
        # The pipeline addresses the RF macro through 4-bit instruction
        # fields: only the 16 architectural entries are reachable at
        # all.  Faults in the banked/spare entries (the paper's SS I
        # equivalence argument) are masked by construction, and the
        # pruner may classify them without simulation.
        trace.register("regfile", 32, reachable_cells=range(16))
        trace.register("cpsr", 1)

        def rf_event(index, write):
            if self._trace_pause == 0:
                trace.record("regfile", index, self.core.cycle, write)

        def flag_event(write):
            if self._trace_pause:
                return
            # The RT design reads/writes the NZCV flops as one bundle.
            cycle = self.core.cycle
            for bit in range(4):
                trace.record("cpsr", bit, cycle, write)

        self.rf.listener = rf_event
        self.rf.flag_listener = flag_event

    def _remove_trace_listeners(self):
        self.rf.listener = None
        self.rf.flag_listener = None

    def _install_pc_listener(self, trace):
        # Retirement stamps carry the post-increment cycle (the tick
        # advances the clock before the stages run), matching
        # TRACE_EVENTS_AT_STOP_EXECUTED=True: the static pruner anchors
        # an injection at stop cycle c to the first retirement stamped
        # >= c + 1.
        def retire_event(cycle, pc):
            if self._trace_pause == 0:
                trace.record(cycle, pc)

        self.core.retire_listener = retire_event

    def _remove_pc_listener(self):
        self.core.retire_listener = None

    def _outside_links(self):
        return super()._outside_links() + [
            (self.rf, "listener"), (self.rf, "flag_listener"),
            (self.core, "retire_listener"),
        ]

    def _adopt_machine(self, core):
        self.core = core
        self.dcache, self.icache = core.dcache, core.icache
        self.predictor = core.predictor
        self.rf = core.rf
        self.trace = core.trace

    # ------------------------------------------------------------------
    # signal tracing (this level only)
    # ------------------------------------------------------------------

    @property
    def signal_crc(self):
        """Rolling CRC of the signal-change stream (None when tracing is
        disabled).  Equal CRCs mean bit-identical signal activity."""
        return self.trace.crc if self.trace is not None else None

    def export_vcd(self, title=None):
        """The recorded waveform as VCD text (tracing must be enabled)."""
        if self.trace is None:
            raise RuntimeError("signal tracing is disabled")
        return self.trace.to_vcd(title or self.program.name)

    # ------------------------------------------------------------------
    # architectural visibility
    # ------------------------------------------------------------------

    def arch_state(self):
        regs = [self.rf.read(i) for i in range(15)]
        return {"regs": regs, "flags": self.rf.cpsr,
                "pc": self.core.retired_next_pc}

    # ------------------------------------------------------------------
    # checkpoint hooks
    # ------------------------------------------------------------------

    def _restart_pc(self):
        return self.core.retired_next_pc

    def _capture_state(self):
        return {
            "rf": self.rf.snapshot(),
            "dcache": self.dcache.snapshot(),
            "icache": self.icache.snapshot(),
            "predictor": self.predictor.snapshot(),
            "trace": self.trace.snapshot() if self.trace else None,
        }

    def _restore_state(self, cp):
        if self.trace is not None and cp.get("trace") is not None:
            self.trace.restore(cp["trace"])
        self.rf.restore(cp["rf"])
        self.dcache.restore(cp["dcache"])
        self.icache.restore(cp["icache"])
        self.predictor.restore(cp["predictor"])

    def _set_restart_point(self, pc, cycle):
        self.core.retired_next_pc = pc
        self.core.last_retire_cycle = cycle

    def _digest_extra(self):
        # The RF macro carries banked/spare flops beyond r0-r14 that
        # arch_state() does not see; they are restorable state, so they
        # belong in the digest.
        from repro.sim.base import _crc

        return super()._digest_extra() + (_crc(self.rf.snapshot()),)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def _resolve_special(self, structure):
        if structure == "regfile":
            return self.rf, None
        if structure == "cpsr":
            return self.rf, "cpsr"
        return None

    def _target_bits(self, holder, array):
        if array == "cpsr":
            return 4
        return super()._target_bits(holder, array)

    def _flip(self, holder, array, bit_index):
        if array == "cpsr":
            holder.cpsr ^= 1 << bit_index
            return
        super()._flip(holder, array, bit_index)
