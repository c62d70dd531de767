"""The unified backend layer: registry, protocol, checkpoint round trips.

Parameterized over **all registered backends** via
:mod:`repro.sim.registry`, so a future fourth level is automatically
held to the same contract:

* checkpoint/restore round-trip equivalence -- restore-then-run must
  match straight-run output, architectural state and pinout;
* the injection interface (``fault_targets``/``inject``) is live state;
* the campaign engine runs end-to-end at every level.
"""

import pytest

from repro.injection import ArchEmu
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.classify import FaultClass
from repro.sim import registry
from repro.sim.base import RunStatus, SimulatorBase

WORKLOAD = "stringsearch"

ALL_LEVELS = registry.level_names()


def make_frontend(level):
    """Scaled front-end (small caches where the level models caches)."""
    return registry.create_frontend(level, WORKLOAD)


@pytest.fixture(scope="module", params=ALL_LEVELS)
def level_sim(request):
    """One simulator per registered level, shared within the module."""
    return request.param, make_frontend(request.param).sim_factory


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def test_registry_lists_three_tiers_in_detail_order():
    # The paper's three tiers must be registered in increasing-detail
    # order.  Subsequence, not equality: plugins may register more
    # backends, and this suite picks them up rather than rejecting them.
    ranked = [n for n in ALL_LEVELS if n in ("arch", "uarch", "rtl")]
    assert ranked == ["arch", "uarch", "rtl"]


def test_registry_unknown_level_raises():
    with pytest.raises(KeyError, match="registered"):
        registry.get("netlist")


def test_registry_rejects_duplicate_registration():
    with pytest.raises(ValueError):
        registry.register("arch", rank=0, description="dupe",
                          simulator="x:y", frontend="x:z")


def test_registry_simulator_classes_subclass_base():
    for spec in registry.levels():
        cls = spec.simulator_class()
        assert issubclass(cls, SimulatorBase)
        assert cls.LEVEL == spec.name


def test_registry_frontends_carry_matching_level():
    for spec in registry.levels():
        assert spec.frontend_class().LEVEL == spec.name


def test_run_status_reexports_are_one_enum():
    from repro.injection.campaign import RunStatus as campaign_rs
    from repro.rtl.simulator import RunStatus as rtl_rs
    from repro.uarch.simulator import RunStatus as uarch_rs

    assert uarch_rs is RunStatus
    assert rtl_rs is RunStatus
    assert campaign_rs is RunStatus


# ----------------------------------------------------------------------
# protocol, per backend
# ----------------------------------------------------------------------

def test_fault_targets_match_injectable(level_sim):
    _, factory = level_sim
    sim = factory()
    targets = sim.fault_targets()
    assert set(targets) == set(sim.INJECTABLE)
    assert all(bits > 0 for bits in targets.values())
    assert targets["regfile"] % 32 == 0


def test_inject_flips_live_state(level_sim):
    _, factory = level_sim
    sim = factory()
    before = list(sim.arch_state()["regs"])
    # Flip bit 0 of every architectural register slot: at least one of
    # them must show up in the committed architectural state.
    for reg in range(15):
        sim.inject("regfile", reg * 32)
    after = list(sim.arch_state()["regs"])
    assert before != after


def test_checkpoint_restore_round_trip(level_sim):
    """Restore-then-run matches straight-run, for every backend."""
    level, factory = level_sim
    sim = factory()
    assert sim.run(stop_cycle=400) is RunStatus.STOPPED
    cp = sim.checkpoint()

    # Straight run: continue the checkpointed machine to completion.
    assert sim.run() is RunStatus.EXITED
    want_output = sim.output
    want_state = sim.arch_state()
    want_pinout = [t.key() for t in sim.pinout]
    want = (sim.cycle, sim.icount)

    # Restore into a *fresh* machine and run to completion.
    other = factory()
    other.restore(cp)
    assert other.cycle == cp["cycle"]
    assert other.run() is RunStatus.EXITED
    assert other.output == want_output
    assert other.arch_state() == want_state
    assert [t.key() for t in other.pinout] == want_pinout
    assert (other.cycle, other.icount) == want, level


def test_state_digest_round_trip_property(level_sim):
    """Property: for random checkpoint cycles, checkpoint() -> run N
    cycles -> state_digest equals the straight-line run's digest.

    This is the contract the warm-start subsystem leans on: a digest
    captures *all* behavior-determining state, so equal digests mean
    interchangeable machines.  Exercised at random cycles for every
    registered backend.
    """
    import random

    level, factory = level_sim
    rng = random.Random(2017)
    probe = factory()
    probe.run()
    end_cycle = probe.cycle
    for trial in range(3):
        cp_cycle = rng.randrange(1, max(end_cycle - 400, 2))
        tail = rng.randrange(50, 400)
        sim = factory()
        assert sim.run(stop_cycle=cp_cycle) is RunStatus.STOPPED
        cp = sim.checkpoint()
        # Straight line: the checkpointed machine continues in place.
        target = sim.cycle + tail
        sim.run(stop_cycle=target)
        want = sim.state_digest()
        # Round trip: a fresh machine restores and runs the same tail.
        other = factory()
        other.restore(cp)
        other.run(stop_cycle=target)
        assert other.state_digest() == want, (level, trial, cp_cycle)


def test_state_digest_ignores_object_identity(level_sim):
    """A checkpoint that travelled through pickle (as it does to pool
    workers) restores into a machine whose digest equals the straight
    run's, even once the run appends live transactions to the
    restored pinout: digests hash content, not which equal objects
    are shared."""
    import pickle

    level, factory = level_sim
    sim = factory()
    sim.run(stop_cycle=2000)
    cp = pickle.loads(pickle.dumps(sim.checkpoint()))
    sim.run(stop_cycle=4000)
    other = factory()
    other.restore(cp)
    other.run(stop_cycle=4000)
    assert len(other.pinout) > len(cp["pinout"]) > 0, level
    assert other.state_digest() == sim.state_digest(), level


def test_state_digest_sees_injected_faults(level_sim):
    """A digest must differ once live state is flipped (else early-stop
    could mask a real corruption)."""
    _, factory = level_sim
    sim = factory()
    sim.run(stop_cycle=300)
    before = sim.state_digest()
    for reg in range(15):
        sim.inject("regfile", reg * 32)
    assert sim.state_digest() != before


def test_checkpoint_at_hook(level_sim):
    """checkpoint_at advances and captures; past-the-end returns None."""
    level, factory = level_sim
    sim = factory()
    status, cp = sim.checkpoint_at(250)
    assert status is RunStatus.STOPPED
    assert cp is not None and cp["cycle"] >= 250
    status, cp = sim.checkpoint_at(10**9)
    assert status is RunStatus.EXITED
    assert cp is None


def test_campaign_runs_at_every_level(level_sim):
    level, factory = level_sim
    config = CampaignConfig(samples=6, window=1500, seed=13)
    campaign = Campaign(factory, "regfile", config,
                        workload=WORKLOAD, level=level)
    result = campaign.run()
    assert result.n == 6
    assert result.level == level
    assert result.count(FaultClass.MASKED) + result.unsafe_count == 6


# ----------------------------------------------------------------------
# access-trace contract (the fault-pruning capture hook)
# ----------------------------------------------------------------------

def test_access_trace_contract(level_sim):
    """Every backend's lifetime trace is well-formed: registered
    structures are injectable, events stay inside the fault-target bit
    space, per-cell cycle stamps are monotone, and every storage cell
    the golden run demonstrably touches (the SP at minimum) is
    covered."""
    level, factory = level_sim
    sim = factory()
    trace = sim.enable_access_trace()
    assert sim.run() is RunStatus.EXITED
    sim.seal_access_trace()
    assert sim.access_trace() is trace

    targets = sim.fault_targets()
    structures = trace.structures()
    assert "regfile" in structures
    assert set(structures) <= set(targets), level
    total_events = 0
    for structure in structures:
        bit_count = targets[structure]
        for cell in trace.cells(structure):
            events = trace.events(structure, cell)
            total_events += len(events)
            assert events, (level, structure, cell)
            # Cells stay inside the injectable bit space (the last
            # valid bit's cell bounds the cell ids) and only
            # machine-reachable cells ever see traffic.
            assert 0 <= cell <= trace.cell_of(structure, bit_count - 1)
            assert trace.reachable(structure, cell)
            cycles = [c for c, _ in events]
            assert cycles == sorted(cycles), (
                f"{level}/{structure}[{cell}]: events not monotone"
            )
            assert all(0 <= c <= sim.cycle for c in cycles)
    assert total_events > 0, level
    # The golden run touches many registers; the trace must cover a
    # spread of cells (not just one hot register), with both reads and
    # writes -- r0 (the syscall result register at every tier's
    # canonical layout) is always among them.
    assert len(trace.cells("regfile")) >= 4, level
    assert trace.events("regfile", 0), f"{level}: r0 never traced"
    reads = writes = 0
    for cell in trace.cells("regfile"):
        for _, is_write in trace.events("regfile", cell):
            writes += is_write
            reads += not is_write
    assert reads > 0 and writes > 0, level


def test_access_trace_round_trips_through_checkpoint_restore(level_sim):
    """A traced checkpoint carries the trace prefix: restoring it into
    a fresh traced simulator and continuing reproduces exactly the
    trace of the reference machine (which, like the campaign's golden
    capture, round-trips through its own checkpoint -- restore()
    canonicalizes renaming residue, so both suffixes start from the
    identical machine)."""
    level, factory = level_sim
    reference = factory()
    reference.enable_access_trace()
    assert reference.run(stop_cycle=400) is RunStatus.STOPPED
    cp = reference.checkpoint()
    assert "access_trace" in cp
    reference.restore(cp)
    assert reference.run() is RunStatus.EXITED
    reference.seal_access_trace()

    other = factory()
    other.enable_access_trace()
    other.restore(cp)
    assert other.run() is RunStatus.EXITED
    other.seal_access_trace()

    assert other.access_trace().snapshot() == \
        reference.access_trace().snapshot(), level


def test_untraced_checkpoints_stay_lean(level_sim):
    """Tracing is strictly opt-in: a plain simulator's checkpoints must
    not grow an access-trace payload, and access_trace() stays None."""
    _, factory = level_sim
    sim = factory()
    assert sim.access_trace() is None
    assert sim.run(stop_cycle=300) is RunStatus.STOPPED
    assert "access_trace" not in sim.checkpoint()


# ----------------------------------------------------------------------
# the arch tier specifically
# ----------------------------------------------------------------------

def test_arch_golden_matches_interpreter_reference():
    from repro.isa import Interpreter, Toolchain
    from repro.workloads import build

    front = ArchEmu(WORKLOAD)
    sim = front.golden_run()
    ref = Interpreter(build(WORKLOAD, Toolchain("gnu"))).run()
    assert sim.exited and sim.exit_code == 0
    assert sim.output == ref.output
    assert sim.icount == ref.inst_count


def test_arch_cycle_proxy_scales_with_cpi():
    from repro.sim.archsim import ArchConfig

    fast = ArchEmu(WORKLOAD).golden_run()
    slow = ArchEmu(WORKLOAD, arch_config=ArchConfig(
        cycles_per_inst=3)).golden_run()
    assert fast.cycle == fast.icount
    assert slow.cycle == 3 * slow.icount
    assert slow.output == fast.output


def test_arch_pinout_publishes_store_stream():
    sim = ArchEmu(WORKLOAD).golden_run()
    assert sim.pinout, "arch pinout must carry the store stream"
    assert all(t.kind == "wb" for t in sim.pinout)


def test_arch_regfile_campaign_produces_standard_counts():
    result = ArchEmu(WORKLOAD).campaign("regfile", mode="pinout",
                                        samples=10, seed=2017)
    summary = result.summary()
    assert summary["n"] == 10
    for key in ("masked", "sdc", "due", "hang", "mismatch", "latent"):
        assert summary[key] >= 0
    assert result.count(FaultClass.MASKED) + result.unsafe_count == 10


def test_arch_hvf_mode_sees_latent_state():
    # The layer-boundary observation point works without a cache model.
    result = ArchEmu(WORKLOAD).campaign("regfile", mode="hvf",
                                        samples=6, seed=5)
    assert result.n == 6


def test_arch_cpsr_injection():
    sim = ArchEmu(WORKLOAD).sim_factory()
    assert sim.fault_targets()["cpsr"] == 4
    before = sim.arch_state()["flags"]
    sim.inject("cpsr", 2)
    assert sim.arch_state()["flags"] == before ^ 0b100


def test_cli_golden_arch(capsys):
    from repro.cli import main

    assert main(["golden", WORKLOAD, "--level", "arch"]) == 0
    out = capsys.readouterr().out
    assert "(arch)" in out and "exited=True" in out
