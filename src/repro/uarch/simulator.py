"""Public microarchitecture-level simulator API (the "GeFIN on gem5" tier).

Wraps :class:`~repro.uarch.core.OoOCore` with the shared simulator
protocol of :class:`repro.sim.base.SimulatorBase`: program loading and
syscall-emulation mode (SS III-C of the paper), run control, pinout-trace
publication, drain-based checkpoint/restore, and the fault-injection
interface over the PRF and cache arrays.  Only the machine construction,
the state capture hooks and the ``INJECTABLE`` map live here.
"""

from repro.memory.cache import Cache, CacheConfig
from repro.sim.base import RunStatus, SimulatorBase
from repro.uarch.branch import BranchPredictor
from repro.uarch.config import CortexA9Config
from repro.uarch.core import OoOCore
from repro.uarch.regfile import NUM_ARCH, PhysRegFile, RenameMap

__all__ = ["MicroArchSim", "RunStatus"]


class MicroArchSim(SimulatorBase):
    """Cycle-level Cortex-A9-class simulator with fault injection."""

    LEVEL = "uarch"

    #: Explicitly not drain-free: the OoO pipeline is never quiescent
    #: mid-run, so golden boundary digests (post-drain states) are
    #: unreachable by a free-running faulty machine and the campaign
    #: engine's early-stop comparator must not fire here.  The base
    #: ``state_digest()`` covers this level through the cache/predictor
    #: extras; the raw PRF stays out of it deliberately -- physical
    #: register assignments are canonicalized by ``restore()`` (see
    #: ``CheckpointCache.seek``), so they are residue, not content.
    DRAIN_FREE = False

    #: Structures a campaign may target, with human descriptions.
    INJECTABLE = {
        "regfile": "physical integer register file (56 x 32 bits)",
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
        return CortexA9Config()

    def _build(self):
        cfg = self.config
        layout = self.program.layout
        self.ram = self._make_ram()
        bus_event = self._bus_listener()
        self.dcache = Cache(
            "l1d",
            CacheConfig(cfg.dcache_size, cfg.dcache_ways, cfg.line_size),
            self.ram, bus_listener=bus_event,
        )
        self.icache = Cache(
            "l1i",
            CacheConfig(cfg.icache_size, cfg.icache_ways, cfg.line_size),
            self.ram, bus_listener=bus_event,
        )
        self.predictor = BranchPredictor(cfg.predictor_entries,
                                         cfg.ras_entries)
        self.prf = PhysRegFile(cfg.phys_regs)
        self.rat = RenameMap(self.prf)
        self.flag_file = PhysRegFile(cfg.flag_regs)
        self.flag_rat = RenameMap(self.flag_file, arch_slots=1)
        self.core = OoOCore(
            cfg, self.program, self.ram, self.icache, self.dcache,
            self.predictor, self.prf, self.rat, self.flag_file,
            self.flag_rat,
        )
        # Bare-metal convention: SP starts at the top of the stack.
        self.prf.write(self.rat.committed[13], layout.stack_top)

    # ------------------------------------------------------------------
    # access tracing (fault pruning)
    # ------------------------------------------------------------------

    def _install_trace_listeners(self, trace):
        # The PRF holds the live values (execute-at-execute), so its
        # read/write stream *is* the lifetime of every injectable
        # regfile bit.  The flag file is not an injection target and
        # stays untraced.
        trace.register("regfile", 32)

        def prf_event(index, write):
            if self._trace_pause == 0:
                trace.record("regfile", index, self.core.cycle, write)

        self.prf.listener = prf_event

    def _remove_trace_listeners(self):
        self.prf.listener = None

    def _outside_links(self):
        return super()._outside_links() + [(self.prf, "listener")]

    def _adopt_machine(self, core):
        self.core = core
        self.dcache, self.icache = core.dcache, core.icache
        self.predictor = core.predictor
        self.prf, self.rat = core.prf, core.rat
        self.flag_file, self.flag_rat = core.flag_file, core.flag_rat

    # ------------------------------------------------------------------
    # architectural visibility (tests, syscall-level comparison)
    # ------------------------------------------------------------------

    def arch_state(self):
        """Committed architectural state (registers r0-r14 + flags)."""
        regs = [self.rat.committed_value(i) for i in range(NUM_ARCH - 1)]
        flags = self.flag_file.read(self.flag_rat.committed[0])
        return {"regs": regs, "flags": flags,
                "pc": self.core.committed_next_pc}

    # ------------------------------------------------------------------
    # checkpoint hooks
    # ------------------------------------------------------------------

    def _restart_pc(self):
        return self.core.committed_next_pc

    def _capture_state(self):
        state = self.arch_state()
        return {
            "seq": self.core.seq,
            "regs": list(state["regs"]),
            "flags": state["flags"],
            "dcache": self.dcache.snapshot(),
            "icache": self.icache.snapshot(),
            "predictor": self.predictor.snapshot(),
        }

    def _restore_state(self, cp):
        self.dcache.restore(cp["dcache"])
        self.icache.restore(cp["icache"])
        self.predictor.restore(cp["predictor"])
        for i, value in enumerate(cp["regs"]):
            self.rat.set_committed_value(i, value)
        self.flag_file.write(self.flag_rat.committed[0], cp["flags"])
        self.core.seq = cp["seq"]

    def _set_restart_point(self, pc, cycle):
        self.core.committed_next_pc = pc
        self.core.last_commit_cycle = cycle

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def _resolve_special(self, structure):
        if structure == "regfile":
            return self.prf, None
        return None
