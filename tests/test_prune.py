"""Lifetime-aware fault pruning: the cross-tier exactness suite.

The acceptance contract (companion to test_warmstart_equivalence.py):
``prune_mode="dead"`` produces fault-for-fault identical
*classifications* to ``prune_mode="off"`` on every registered backend
-- pruning is a work-avoidance optimisation, never a result change.
Pruned records differ only in their accounting (``detail`` explains the
proof, ``sim_cycles`` is 0, ``pruned`` is set).

Plus unit coverage of the trace/pruner pair.
"""

import pytest

from repro.injection.campaign import (
    Campaign,
    CampaignConfig,
    SCALED_WINDOW,
)
from repro.injection.checkpoint_cache import CheckpointCache
from repro.injection.classify import FaultClass
from repro.injection.faults import FaultSpec
from repro.prune import FaultPruner, LifetimeTrace
from repro.prune.pruner import (
    DEAD_COLD_DETAIL,
    DEAD_OVERWRITE_DETAIL,
    DEAD_SILENT_DETAIL,
    DEAD_UNREACHABLE_DETAIL,
    DEAD_WINDOW_DETAIL,
)
from repro.sim import registry
from repro.workloads import WORKLOAD_NAMES

WORKLOAD = "stringsearch"
#: Enough faults that every tier simulates some under dead pruning (at
#: 24 the window rule resolved every rtl fault, and the composition
#: checks below compared pruned records only).
SAMPLES = 64
SEED = 13
WINDOW = 800

ALL_LEVELS = registry.level_names()


def run_campaign(factory, level, store=None, resume=False,
                 **config_kwargs):
    config = CampaignConfig(samples=SAMPLES, window=WINDOW, seed=SEED,
                            **config_kwargs)
    campaign = Campaign(factory, "regfile", config,
                        workload=WORKLOAD, level=level)
    return campaign.run(store=store, resume=resume)


# ----------------------------------------------------------------------
# LifetimeTrace
# ----------------------------------------------------------------------

def make_trace():
    trace = LifetimeTrace()
    trace.register("regfile", 32)
    trace.register("cpsr", 1)
    return trace


def test_trace_next_event_orders_same_cycle_events():
    trace = make_trace()
    # read-then-write at cycle 10 (e.g. add r0, r0, r1): the read must
    # be what a fault injected at cycle 10 sees first.
    trace.record("regfile", 0, 10, False)
    trace.record("regfile", 0, 10, True)
    assert trace.next_event("regfile", 0, 10) == (10, False, 0)
    assert trace.next_event("regfile", 0, 11) is None
    # write-then-read at the same cycle keeps execution order too.
    trace.record("regfile", 1, 20, True)
    trace.record("regfile", 1, 20, False)
    assert trace.next_event("regfile", 1, 20) == (20, True, 0)


def test_trace_bisect_skips_earlier_events():
    trace = make_trace()
    for cycle, write in ((5, True), (9, False), (14, True)):
        trace.record("regfile", 3, cycle, write)
    assert trace.next_event("regfile", 3, 6) == (9, False, 1)
    assert trace.next_event("regfile", 3, 10) == (14, True, 2)
    assert trace.next_event("regfile", 3, 15) is None
    assert trace.next_event("regfile", 7, 0) is None  # untouched cell


def test_trace_cell_mapping_and_reachability():
    trace = LifetimeTrace()
    trace.register("regfile", 32, reachable_cells=range(16))
    assert trace.cell_of("regfile", 0) == 0
    assert trace.cell_of("regfile", 33) == 1
    assert trace.reachable("regfile", 15)
    assert not trace.reachable("regfile", 16)
    trace.register("cpsr", 1)
    assert trace.reachable("cpsr", 3)


def test_trace_snapshot_round_trip():
    trace = make_trace()
    trace.record("regfile", 2, 7, True)
    snap = trace.snapshot()
    trace.record("regfile", 2, 9, False)
    other = LifetimeTrace()
    other.restore(snap)
    assert other.events("regfile", 2) == ((7, True),)
    assert other.traces("cpsr")
    # The snapshot is a deep copy: mutating the original leaves it alone.
    assert trace.events("regfile", 2) == ((7, True), (9, False))


# ----------------------------------------------------------------------
# FaultPruner unit behavior (synthetic traces)
# ----------------------------------------------------------------------

def fault(bit, cycle, structure="regfile"):
    return FaultSpec(structure, bit, cycle)


def test_pruner_dead_interval_is_masked():
    trace = make_trace()
    trace.record("regfile", 1, 50, True)   # overwrite, no read before
    pruner = FaultPruner(trace, events_at_stop_executed=True,
                         observation="pinout")
    assert pruner.classify(fault(32, 10)) == (
        FaultClass.MASKED, DEAD_OVERWRITE_DETAIL)


def test_pruner_read_first_is_live():
    trace = make_trace()
    trace.record("regfile", 1, 50, False)
    trace.record("regfile", 1, 51, True)
    pruner = FaultPruner(trace, True, "pinout")
    assert pruner.classify(fault(32, 10)) is None


def test_pruner_stop_convention_shifts_the_threshold():
    trace = make_trace()
    trace.record("regfile", 0, 10, True)
    # Hardware models: events stamped with the stop cycle already ran,
    # so a fault at cycle 10 sees nothing -> never-read -> masked.
    hw = FaultPruner(trace, events_at_stop_executed=True,
                     observation="pinout")
    assert hw.classify(fault(0, 10)) == (
        FaultClass.MASKED, DEAD_SILENT_DETAIL)
    # The arch emulator pauses *before* the work of the stop cycle:
    # the write at 10 is still ahead -> overwritten.
    arch = FaultPruner(trace, events_at_stop_executed=False,
                       observation="pinout")
    assert arch.classify(fault(0, 10)) == (
        FaultClass.MASKED, DEAD_OVERWRITE_DETAIL)


def test_pruner_never_read_simulates_under_arch_observation():
    trace = make_trace()
    pruner = FaultPruner(trace, True, "arch")
    # The surviving flip would show up as latent state at the HVF
    # layer boundary: not prunable there.
    assert pruner.classify(fault(32, 10)) is None
    assert FaultPruner(trace, True, "software").classify(
        fault(32, 10)) == (FaultClass.MASKED, DEAD_SILENT_DETAIL)


def test_pruner_unreachable_cell_is_masked_in_every_mode():
    trace = LifetimeTrace()
    trace.register("regfile", 32, reachable_cells=range(16))
    for observation in ("pinout", "software", "arch"):
        pruner = FaultPruner(trace, True, observation)
        assert pruner.classify(fault(20 * 32, 10)) == (
            FaultClass.MASKED, DEAD_UNREACHABLE_DETAIL)


def test_pruner_untraced_structure_simulates():
    trace = make_trace()
    pruner = FaultPruner(trace, True, "pinout")
    assert pruner.classify(fault(5, 10, structure="l1d.data")) is None


def test_pruner_event_horizon_bounds_pipelined_verdicts():
    trace = make_trace()
    trace.record("regfile", 1, 5000, True)  # kill-write, next segment
    segments = ([0, 4100], [0, 4000])       # boundary cycles / stops
    pruner = FaultPruner(trace, True, "pinout", segments=segments)
    # Injection in segment 0: the write at 5000 lies beyond the shared
    # horizon (stop 4000) -> simulate.
    assert pruner.classify(fault(32, 100)) is None
    # "Never read again" is a whole-run claim: not provable either.
    assert pruner.classify(fault(64, 100)) is None
    # Injection inside the drain window (stop 4000 < cycle <= 4100):
    # nothing past the stop is shared -> simulate.
    assert pruner.classify(fault(32, 4050)) is None
    # The final segment free-runs to program exit: full authority.
    assert pruner.classify(fault(32, 4200)) == (
        FaultClass.MASKED, DEAD_OVERWRITE_DETAIL)
    assert pruner.classify(fault(64, 4200)) == (
        FaultClass.MASKED, DEAD_SILENT_DETAIL)
    # Unlimited horizon (drain-free backend): the same early fault is
    # provably overwritten.
    assert FaultPruner(trace, True, "pinout").classify(
        fault(32, 100)) == (FaultClass.MASKED, DEAD_OVERWRITE_DETAIL)


# ----------------------------------------------------------------------
# window-bounded verdicts (synthetic traces)
# ----------------------------------------------------------------------

WINDOWED = (FaultClass.MASKED, DEAD_WINDOW_DETAIL)


@pytest.mark.parametrize("executed", [True, False],
                         ids=["events_at_stop_executed", "pending"])
def test_window_rule_tick_convention_at_the_window_end(executed):
    """A read stamped exactly ``t + window`` has run when the faulty run
    pauses there on tiers that work before advancing the clock, and is
    still pending on the others."""
    trace = make_trace()
    trace.record("regfile", 1, 110, False)
    trace.record("regfile", 2, 109, False)
    trace.record("regfile", 3, 111, False)
    pruner = FaultPruner(trace, executed, "pinout", window=10)
    at_end = pruner.classify(fault(32, 100))
    assert at_end == (None if executed else WINDOWED)
    assert pruner.classify(fault(64, 100)) is None    # read at 109
    assert pruner.classify(fault(96, 100)) == WINDOWED  # read at 111


def test_window_rule_bounded_by_the_horizon():
    trace = make_trace()
    trace.record("regfile", 1, 4500, False)  # read, next segment
    segments = ([0, 4100], [0, 4000])
    at = {window: FaultPruner(trace, True, "pinout", segments=segments,
                              window=window)
          for window in (3900, 3901)}
    # t + window == the pre-drain stop: the whole window is shared
    # with the golden segment.
    assert at[3900].classify(fault(32, 100)) == WINDOWED
    assert at[3900].classify(fault(64, 100)) == WINDOWED  # untouched
    # One cycle past the stop: the golden run was draining there.
    assert at[3901].classify(fault(32, 100)) is None
    assert at[3901].classify(fault(64, 100)) is None


def test_window_rule_skips_drain_window_injections():
    trace = make_trace()
    segments = ([0, 4100], [0, 4000])
    pruner = FaultPruner(trace, True, "pinout", segments=segments,
                         window=1)
    # 4000 < 4050 < 4100: injected while the golden run drained.
    assert pruner.classify(fault(32, 4050)) is None
    # The final segment free-runs: any window end is shared.
    trace.record("regfile", 1, 9000, False)
    assert pruner.classify(fault(32, 4200)) == WINDOWED


def test_window_rule_never_applies_under_arch_observation():
    trace = make_trace()
    trace.record("regfile", 1, 500, False)
    pruner = FaultPruner(trace, True, "arch", window=10)
    assert pruner.classify(fault(32, 100)) is None


def test_window_rule_needs_a_window():
    """Faulty runs of a windowless campaign go to program end: a read
    far away still decides.  The campaign hands its window over."""
    trace = make_trace()
    trace.record("regfile", 1, 500, False)
    assert FaultPruner(trace, True, "pinout").classify(
        fault(32, 100)) is None
    factory = registry.create_frontend("rtl", WORKLOAD).sim_factory
    golden = {"trace": trace, "cache": CheckpointCache()}
    for window in (None, WINDOW):
        config = CampaignConfig(window=window, observation="software")
        campaign = Campaign(factory, "regfile", config, level="rtl")
        pruner, _ = campaign._pruners(factory(), golden)
        assert pruner.window == window


def test_window_none_keeps_every_verdict():
    """Whatever a windowless pruner decides, a windowed one decides the
    same; the window only adds verdicts where there were none."""
    trace = make_trace()
    for cycle, write in ((50, True), (120, False), (130, True),
                         (4020, False), (4500, True)):
        trace.record("regfile", 1, cycle, write)
    trace.record("regfile", 2, 3000, False)
    trace.record("cpsr", 0, 60, True)
    faults = [fault(bit, cycle, structure)
              for structure, bits in (("regfile", (0, 32, 64, 96)),
                                      ("cpsr", (0, 1)))
              for bit in bits
              for cycle in (0, 49, 50, 100, 119, 3999, 4000, 4050, 4200)]
    added = 0
    for segments in (None, ([0, 4100], [0, 4000])):
        for observation in ("pinout", "software", "arch"):
            for executed in (True, False):
                plain = FaultPruner(trace, executed, observation,
                                    segments=segments)
                windowed = FaultPruner(trace, executed, observation,
                                       segments=segments, window=40)
                for f in faults:
                    before = plain.classify(f)
                    after = windowed.classify(f)
                    assert before is None or before[1] != \
                        DEAD_WINDOW_DETAIL
                    if before is not None:
                        assert after == before, (f, observation)
                    elif after is not None:
                        assert after == WINDOWED
                        added += 1
    assert added


# ----------------------------------------------------------------------
# write-born (cold-line) verdicts (synthetic traces)
# ----------------------------------------------------------------------

#: One L1D line: the cell of the ``l1d.data`` trace.
LINE_BITS = 8 * 32
COLD = (FaultClass.MASKED, DEAD_COLD_DETAIL)


def make_line_trace():
    trace = LifetimeTrace()
    trace.register("l1d.data", LINE_BITS, write_born=True)
    return trace


def line_fault(line, cycle):
    return fault(line * LINE_BITS + 13, cycle, structure="l1d.data")


def test_trace_write_born_cells():
    trace = make_line_trace()
    trace.record("l1d.data", 3, 40, True)
    assert trace.unwritten_before("l1d.data", 3, 40)
    assert not trace.unwritten_before("l1d.data", 3, 41)
    assert trace.unwritten_before("l1d.data", 4, 10**9)  # never filled
    other = LifetimeTrace()
    other.restore(trace.snapshot())
    assert other.unwritten_before("l1d.data", 4, 0)
    # Register cells hold a value from reset: never write-born.
    assert not make_trace().unwritten_before("regfile", 0, 10)


@pytest.mark.parametrize("executed", [True, False],
                         ids=["events_at_stop_executed", "pending"])
def test_cold_rule_tick_convention_at_the_fill(executed):
    """A refill stamped exactly at the injection cycle has run when the
    faulty run pauses there on tiers that work before advancing the
    clock (the line holds data: simulate), and is still pending on the
    others (the refill will overwrite the flip)."""
    trace = make_line_trace()
    trace.record("l1d.data", 1, 100, True)
    trace.record("l1d.data", 1, 500, False)
    pruner = FaultPruner(trace, executed, "software")
    assert pruner.classify(line_fault(1, 100)) == (
        None if executed else COLD)
    assert pruner.classify(line_fault(1, 99)) == COLD
    assert pruner.classify(line_fault(1, 101)) is None


@pytest.mark.parametrize("observation", ["pinout", "software", "arch"])
def test_cold_rule_holds_at_every_observation_point(observation):
    """An invalid line is outside every observation channel, the arch
    point's coherent memory image included (it overlays valid dirty
    lines only)."""
    trace = make_line_trace()
    trace.record("l1d.data", 1, 100, True)
    trace.record("l1d.data", 1, 150, False)
    trace.record("l1d.data", 2, 100, True)
    for executed in (True, False):
        for window in (None, 100):
            if observation == "arch" and window:
                continue
            pruner = FaultPruner(trace, executed, observation,
                                 window=window)
            assert pruner.classify(line_fault(1, 50)) == COLD
            # Never filled: invalid to the end of the run.
            assert pruner.classify(line_fault(7, 50)) == COLD
            assert pruner.classify(line_fault(7, 10**6)) == COLD
            # Filled, then read: the line is live.
            assert pruner.classify(line_fault(1, 120)) is None
            # Filled, then never touched: only the behaviour-watching
            # points may call it masked, not as a cold line.
            assert pruner.classify(line_fault(2, 120)) == (
                None if observation == "arch"
                else (FaultClass.MASKED, DEAD_SILENT_DETAIL))


def test_cold_rule_needs_a_shared_instant_not_a_horizon():
    trace = make_line_trace()
    trace.record("l1d.data", 1, 5000, True)  # first fill, next segment
    segments = ([0, 4100], [0, 4000])
    pruner = FaultPruner(trace, True, "software", segments=segments)
    # The fill lies past the horizon (stop 4000), but the verdict is
    # about the line at the injection instant, which is shared.
    assert pruner.classify(line_fault(1, 100)) == COLD
    assert pruner.classify(line_fault(2, 100)) == COLD
    assert pruner.classify(line_fault(1, 4000)) == COLD
    # Inside the drain window the faulty run did not drain: it may
    # have filled lines the golden trace has not.
    assert pruner.classify(line_fault(1, 4050)) is None
    assert pruner.classify(line_fault(2, 4050)) is None
    assert pruner.classify(line_fault(1, 4200)) == COLD


@pytest.mark.parametrize("level", ["uarch", "rtl"])
def test_line_capture_records_fills_first(level):
    """The ``l1d`` trace scope records every refill as a write, and
    each line's first event is its first refill."""
    sim = registry.create_frontend(level, "sha").sim_factory()
    trace = sim.enable_access_trace(scope="l1d")
    sim.run_to_completion()
    assert trace.structures() == ("l1d.data",)
    cells = trace.cells("l1d.data")
    assert cells
    config = sim.dcache.config
    assert max(cells) < config.sets * config.ways
    streams = [trace.events("l1d.data", cell) for cell in cells]
    assert all(stream[0][1] for stream in streams)
    assert sum(w for stream in streams for _, w in stream) == \
        sim.dcache.misses


# ----------------------------------------------------------------------
# the acceptance contract: dead == off, fault for fault, on every tier
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=ALL_LEVELS)
def level_results(request):
    level = request.param
    factory = registry.create_frontend(level, WORKLOAD).sim_factory
    off = run_campaign(factory, level, prune_mode="off")
    dead = run_campaign(factory, level, prune_mode="dead")
    assert dead.simulated_count > 0, f"{level}: nothing left to simulate"
    return level, factory, off, dead


def test_dead_mode_classifications_identical(level_results):
    level, _, off, dead = level_results
    assert [(r.fault.bit, r.fault.cycle) for r in off.records] == \
        [(r.fault.bit, r.fault.cycle) for r in dead.records]
    assert [r.fclass for r in off.records] == \
        [r.fclass for r in dead.records], (
            f"{level}: pruning changed a classification"
    )


def test_dead_mode_actually_prunes(level_results):
    level, _, off, dead = level_results
    assert off.pruned_count == 0
    assert off.simulated_count == SAMPLES
    assert dead.pruned_count > 0, f"{level}: pruning never fired"
    assert dead.simulated_count + dead.pruned_count == SAMPLES
    assert all(r.sim_cycles == 0 and r.replay_cycles == 0
               for r in dead.records if r.pruned)
    assert all(r.pruned == "dead" for r in dead.records if r.pruned)
    # Pruned work is visible in the deterministic cycle accounting too.
    assert dead.simulated_cycles < off.simulated_cycles


def test_dead_mode_independent_of_execution_strategy(level_results):
    """Pruning composes with the other accelerators: jobs/warm-start
    permutations of a pruned campaign stay bit-identical."""
    from support import record_keys

    level, factory, _, dead = level_results
    for kwargs in ({"jobs": 2}, {"warm_start": False},
                   {"checkpoint_bound": 2}):
        other = run_campaign(factory, level, prune_mode="dead", **kwargs)
        assert record_keys(other) == record_keys(dead), (level, kwargs)


def test_summary_reports_prune_counts(level_results):
    _, _, off, dead = level_results
    assert off.summary()["pruned"] == 0
    summary = dead.summary()
    assert summary["pruned"] == dead.pruned_count
    assert summary["simulated"] == dead.simulated_count


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_window_pruning_exact_over_registry(level):
    """Every registry workload, regfile pinout at the scaled window:
    dead == off class for class, and each fault the window rule pruned
    classifies Masked when simulated (the off run simulates it)."""
    windowed = 0
    for workload in WORKLOAD_NAMES:
        factory = registry.create_frontend(level, workload).sim_factory
        runs = {}
        for prune_mode in ("off", "dead"):
            config = CampaignConfig(samples=8, window=SCALED_WINDOW,
                                    seed=SEED, prune_mode=prune_mode)
            runs[prune_mode] = Campaign(
                factory, "regfile", config, workload=workload,
                level=level).run()
        off, dead = runs["off"].records, runs["dead"].records
        assert [r.fclass for r in off] == [r.fclass for r in dead], \
            workload
        for simulated, pruned in zip(off, dead):
            if pruned.detail == DEAD_WINDOW_DETAIL:
                assert simulated.fclass is FaultClass.MASKED, workload
                windowed += 1
    assert windowed, f"{level}: the window rule never fired"


#: Per tier: a run-to-end mode and the windowed pinout mode of the
#: front-end (rtl pinout keeps its default inject-near-consumption
#: acceleration for l1d.data).
L1D_MODES = {"uarch": ("avf", "pinout"), "rtl": ("sop", "pinout")}


@pytest.mark.parametrize("level", sorted(L1D_MODES))
def test_l1d_pruning_exact_over_registry(level):
    """Every registry workload, l1d.data: dead == off class for class,
    and each fault the cold-line rule pruned classifies Masked when
    simulated."""
    cold = 0
    for workload in WORKLOAD_NAMES:
        frontend = registry.create_frontend(level, workload)
        for mode in L1D_MODES[level]:
            off, dead = (
                frontend.campaign("l1d.data", mode, samples=6, seed=SEED,
                                  prune_mode=prune_mode).records
                for prune_mode in ("off", "dead"))
            assert [r.fclass for r in off] == \
                [r.fclass for r in dead], (workload, mode)
            for simulated, pruned in zip(off, dead):
                if pruned.detail == DEAD_COLD_DETAIL:
                    assert simulated.fclass is FaultClass.MASKED, \
                        (workload, mode)
                    cold += 1
    assert cold, f"{level}: the cold-line rule never fired"


def test_register_goldens_capture_what_they_did(monkeypatch):
    """Only l1d.* campaigns trace L1D lines: a register campaign's
    capture shape and golden pool key are the ones they were."""
    monkeypatch.delenv("REPRO_STATIC_XCHECK", raising=False)

    def campaign(structure, **kwargs):
        return Campaign(None, structure, CampaignConfig(**kwargs),
                        workload=WORKLOAD, level="rtl")

    assert campaign("regfile")._capture_shape() == (True, False)
    assert campaign("regfile").golden_key() == (
        "rtl", WORKLOAD, False, (True, False), None, None, True, None)
    assert campaign("cpsr", prune_mode="off")._capture_shape() == \
        (False, False)
    assert campaign("l1d.data")._capture_shape() == ("l1d", False)
    assert campaign("l1d.tag")._capture_shape() == ("l1d", False)
    assert campaign("l1d.data", prune_mode="off")._capture_shape() == \
        (False, False)
    assert campaign("l1i.data")._capture_shape() == (False, False)


@pytest.mark.parametrize("level", sorted(L1D_MODES))
def test_l1i_dead_mode_captures_no_trace(level):
    """No lifetime trace decides an l1i.* fault, so a dead-mode l1i
    campaign captures none, and its records are the prune=off records
    (it never pruned one)."""
    from support import record_keys

    frontend = registry.create_frontend(level, "sha")
    off, dead = (frontend.campaign("l1i.data", "pinout", samples=8,
                                   seed=SEED, prune_mode=prune_mode)
                 for prune_mode in ("off", "dead"))
    assert dead.pruned_count == 0
    assert record_keys(dead) == record_keys(off)


# ----------------------------------------------------------------------
# config / CLI / store plumbing
# ----------------------------------------------------------------------

def test_config_validates_and_identifies_prune_mode():
    with pytest.raises(ValueError):
        CampaignConfig(prune_mode="telepathy")
    assert CampaignConfig().prune_mode == "dead"
    assert CampaignConfig().identity()["prune_mode"] == "dead"
    assert "prune=static" in CampaignConfig(prune_mode="static").describe()
    assert "prune" not in CampaignConfig().describe()


def test_group_prune_mode_is_rejected_at_every_entry_point():
    """The approximate ``group`` mode is gone: the Python API, the
    scenario spec and the CLI all refuse it."""
    from repro import cli
    from repro.scenario.spec import ScenarioError, ScenarioSpec

    with pytest.raises(ValueError, match="unknown prune mode 'group'"):
        CampaignConfig(prune_mode="group")
    with pytest.raises(ScenarioError,
                       match=r"valid: dead, off, static") as err:
        ScenarioSpec.from_mapping({"execution": {"prune": "group"}})
    assert err.value.field == "execution.prune"
    # --prune is an alias of --set execution.prune: the same checker
    # refuses it, naming the field.
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "sweep-smoke", "--prune", "group"])
    assert str(exit_info.value.code).startswith(
        "repro-study: [execution.prune] unknown prune mode 'group'")


@pytest.mark.parametrize("store_format", ["binary", "jsonl"])
def test_legacy_group_records_load_but_never_resume(tmp_path, capsys,
                                                    store_format):
    """Stores written while ``group`` existed (pruned code 2) stay
    readable, but no current prune mode may resume them."""
    from repro import cli
    from repro.analysis.report import store_table
    from repro.injection.classify import FaultRecord
    from repro.injection.store import CampaignStore, StoreMismatchError
    from repro.prune import PRUNE_MODES

    factory = registry.create_frontend("arch", WORKLOAD).sim_factory

    def campaign(prune_mode):
        config = CampaignConfig(samples=SAMPLES, window=WINDOW, seed=SEED,
                                prune_mode=prune_mode)
        return Campaign(factory, "regfile", config, workload=WORKLOAD,
                        level="arch")

    identity = campaign("dead").identity()
    identity["config"]["prune_mode"] = "group"
    path = tmp_path / "legacy"
    store = CampaignStore(path, store_format=store_format)
    store.begin(identity)
    store.append(0, FaultRecord(fault(32, 10), FaultClass.SDC,
                                "output mismatch", pruned="group"))
    store.close()

    record = CampaignStore(path).records()[0]
    assert (record.pruned, record.fclass) == ("group", FaultClass.SDC)
    assert not record.simulated
    header, row = [line.split() for line in
                   store_table([path]).splitlines()
                   if "pruned" in line or str(path) in line]
    assert row[header.index("pruned")] == "1"
    cli.main(["store", str(path), "--export", "jsonl"])
    assert '"pruned": "group"' in capsys.readouterr().out
    for mode in PRUNE_MODES:
        with pytest.raises(StoreMismatchError):
            campaign(mode).run(store=CampaignStore(path), resume=True)


def test_progress_counts_only_simulated_faults():
    factory = registry.create_frontend("arch", WORKLOAD).sim_factory
    seen = []
    config = CampaignConfig(samples=SAMPLES, window=WINDOW, seed=SEED)
    result = Campaign(factory, "regfile", config, workload=WORKLOAD,
                      level="arch").run(
        progress=lambda done, total, rec: seen.append((done, total)))
    assert result.pruned_count > 0
    assert all(total == result.simulated_count for _, total in seen)
    assert len(seen) == result.simulated_count


def test_store_round_trip_preserves_pruned_flag(tmp_path):
    from repro.injection.store import CampaignStore
    from support import record_keys

    factory = registry.create_frontend("arch", WORKLOAD).sim_factory
    store = CampaignStore(tmp_path / "s")
    first = run_campaign(factory, "arch", prune_mode="dead", store=store)
    assert first.pruned_count > 0
    reloaded = CampaignStore(tmp_path / "s").records()
    assert sum(1 for r in reloaded.values() if r.pruned == "dead") == \
        first.pruned_count
    # A full resume rebuilds the identical result without simulating.
    resumed = run_campaign(factory, "arch", prune_mode="dead",
                           store=CampaignStore(tmp_path / "s"),
                           resume=True)
    assert resumed.resumed == SAMPLES
    assert record_keys(resumed) == record_keys(first)
    assert resumed.pruned_count == first.pruned_count


def test_store_rejects_prune_mode_mismatch(tmp_path):
    from repro.injection.store import CampaignStore, StoreMismatchError

    factory = registry.create_frontend("arch", WORKLOAD).sim_factory
    run_campaign(factory, "arch", prune_mode="dead",
                 store=CampaignStore(tmp_path / "s"))
    with pytest.raises(StoreMismatchError):
        run_campaign(factory, "arch", prune_mode="off",
                     store=CampaignStore(tmp_path / "s"), resume=True)


def test_records_csv_carries_pruned_column():
    from repro.analysis.export import records_to_csv, results_to_csv

    factory = registry.create_frontend("arch", WORKLOAD).sim_factory
    result = run_campaign(factory, "arch", prune_mode="dead")
    per_fault = records_to_csv(result)
    assert "pruned" in per_fault.splitlines()[0]
    assert ",dead" in per_fault
    summary_csv = results_to_csv([result])
    header = summary_csv.splitlines()[0].split(",")
    row = summary_csv.splitlines()[1].split(",")
    assert row[header.index("pruned")] == str(result.pruned_count)
    assert row[header.index("simulated")] == str(result.simulated_count)
