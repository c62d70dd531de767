"""The cross-lane equivalence matrix for the lane walk, on every tier.

``repro.batch`` promises that the lane walk (:mod:`repro.batch.engine`)
is pure throughput optimisation: for a fixed seed, the per-fault
record sequence of a campaign run at ``batch_lanes=N`` is bit-identical
to the scalar path (``batch_lanes=1``), fault for fault, on the arch
tier (forks at checkpoints) and on the pipelined uarch and rtl tiers
(forks at in-flight waypoints), across every execution strategy the
campaign engine composes it with --

* **prune modes** -- the simulate-only partition feeds the walk
  exactly the faults the scalar path would simulate;
* **jobs=1 vs jobs=N** -- each worker walks its own slice;
* **warm vs cold start** -- the walk seeks from the same checkpoint
  or waypoint (or replays the same prefix) the scalar runner would;
* **store round-trips** -- records written at one lane count resume at
  another;
* **observation points** -- AVF/SOP (program output) and HVF
  (hardware state) as well as the pinout;
* **divergence** -- CPSR flips send most tails off the golden path
  within a few instructions, and cache-array faults mutate the timing
  model itself; the walk must rejoin the golden run after each.

Identity is asserted on everything a record carries except per-session
accounting: fault identity, class, detail and simulated cycles
(``record_keys``).  The walk's edge cases (instants straddling an
evicted checkpoint boundary, instants past program exit, the cycle
accounting, the look-ahead that skips a fork when the next fault's own
waypoint is nearer) run on hand-placed fault instants, and every
registry workload is pinned at ``lanes=8`` vs ``lanes=1`` on every
tier.  The final test pins the acceptance criterion: the shipped
``fig1`` preset grid yields bit-identical per-fault classes at
``lanes=8`` vs ``lanes=1``.

The rtl campaigns of the matrix run a small-cache, trace-free
``RTLConfig`` so it stays cheap; the full-size configuration is
exercised by the ``bench-smoke`` lanes diff and
``benchmarks/test_batch_speedup.py``.
"""

import shutil

import pytest

from repro.batch.engine import LaneWalk
from repro.injection.campaign import Campaign, CampaignConfig, FaultRunner
from repro.injection.checkpoint_cache import CheckpointCache
from repro.injection.classify import AFTER_PROGRAM_END, FaultClass
from repro.injection.faults import FaultSpec
from repro.injection.store import CampaignStore
from repro.rtl import RTLConfig, RTLSim
from repro.scenario.presets import preset_path
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import ScenarioSpec, load_mapping
from repro.sim import registry
from repro.workloads import registry as workloads
from repro.workloads.registry import WORKLOAD_NAMES
from support import record_keys, truncate_records

SAMPLES = 8
SEED = 13
WINDOW = 800
LANES = 4
#: Faults per matrix cell, by tier and prune mode.  At this window dead
#: pruning resolves most register faults without simulation, so the
#: prune=dead cells draw more to leave the walk at least ``LANES``
#: faults.
MATRIX_SAMPLES = {"arch": {"off": SAMPLES, "dead": 24},
                  "uarch": {"off": SAMPLES, "dead": 16},
                  "rtl": {"off": SAMPLES, "dead": 64}}

FAST_RTL = RTLConfig(trace_signals=False, dcache_size=1024,
                     icache_size=1024)


class RTLFactory:
    """Picklable rtl sim factory (jobs=2 ships it to workers)."""

    def __init__(self, workload):
        self.workload = workload

    def __call__(self):
        return RTLSim(workloads.build(self.workload), FAST_RTL)


def make_factory(workload, level="arch"):
    if level == "rtl":
        return RTLFactory(workload)
    return registry.create_frontend(level, workload).sim_factory


def run_campaign(factory, workload, structure="regfile", level="arch",
                 golden_pool=None, **config_kwargs):
    kwargs = {"samples": SAMPLES, "window": WINDOW, "seed": SEED}
    kwargs.update(config_kwargs)
    store = kwargs.pop("store", None)
    resume = kwargs.pop("resume", False)
    config = CampaignConfig(**kwargs)
    campaign = Campaign(factory, structure, config,
                        workload=workload, level=level)
    return campaign.run(store=store, resume=resume, golden_pool=golden_pool)


def tier_id(level, *rest):
    """Test id of a tier-parametrized cell; arch cells keep the ids
    they had when the walk served the arch tier alone."""
    return "-".join(([] if level == "arch" else [level]) + list(rest))


# ----------------------------------------------------------------------
# the matrix: tiers x workloads x prune x jobs x warm/cold
# ----------------------------------------------------------------------

@pytest.fixture(scope="module",
                params=[(level, workload, prune)
                        for level in ("arch", "uarch", "rtl")
                        for workload in ("stringsearch", "sha")
                        for prune in ("off", "dead")],
                ids=lambda p: tier_id(p[0], p[1], f"prune_{p[2]}"))
def scalar_reference(request):
    """Per (tier, workload, prune): the factory plus the scalar warm
    serial reference records."""
    level, workload, prune = request.param
    factory = make_factory(workload, level)
    samples = MATRIX_SAMPLES[level][prune]
    reference = run_campaign(factory, workload, level=level,
                             prune_mode=prune, samples=samples)
    assert reference.n == samples
    assert reference.simulated_count >= LANES
    return level, workload, prune, factory, record_keys(reference)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_lane_equivalence_matrix(scalar_reference, jobs, warm):
    """lanes=N x {jobs=1,2} x {warm,cold} x {prune off,dead} == the
    scalar warm serial reference."""
    level, workload, prune, factory, reference = scalar_reference
    result = run_campaign(factory, workload, level=level, prune_mode=prune,
                          samples=MATRIX_SAMPLES[level][prune],
                          warm_start=warm, jobs=jobs, batch_lanes=LANES)
    assert record_keys(result) == reference, (
        f"{level}/{workload}: lanes={LANES} prune={prune} warm={warm} "
        f"jobs={jobs} diverged from the scalar reference"
    )


def test_batch_cycles_accounted_serially(scalar_reference):
    """The serial lane walk reports the cycles it stepped -- the
    denominator of the published ``batch_speedup`` series (the ratio is
    asserted in ``benchmarks/test_batch_speedup.py``; here we pin the
    accounting itself)."""
    level, workload, prune, factory, _ = scalar_reference
    samples = MATRIX_SAMPLES[level][prune]
    result = run_campaign(factory, workload, level=level, prune_mode=prune,
                          samples=samples, batch_lanes=LANES)
    assert result.batch_cycles > 0
    assert result.batch_cycles == sum(r.replay_cycles + r.sim_cycles
                                      for r in result.records
                                      if r.simulated)
    scalar = run_campaign(factory, workload, level=level, prune_mode=prune,
                          samples=samples)
    assert scalar.batch_cycles == 0


# ----------------------------------------------------------------------
# divergence-heavy configurations
# ----------------------------------------------------------------------

@pytest.mark.parametrize("level", ["arch", "rtl"])
def test_cpsr_faults_force_heavy_divergence(level):
    """CPSR flag flips divert conditional branches immediately, so most
    faulty tails leave the golden path within a few instructions; the
    walk must still rejoin the golden machine after each one, and the
    records must match the scalar path bit for bit."""
    factory = make_factory("stringsearch", level)
    kwargs = {"structure": "cpsr", "level": level, "samples": 16,
              "window": 2000 if level == "arch" else 4000}
    scalar = run_campaign(factory, "stringsearch", **kwargs)
    batch = run_campaign(factory, "stringsearch", batch_lanes=8, **kwargs)
    keys = record_keys(batch)
    assert keys == record_keys(scalar)
    # The config earns its name: a real mix of survivors and casualties.
    assert len({k[2] for k in keys}) > 1, "all faults classified alike"


@pytest.mark.parametrize("structure", ["l1d.data", "l1d.dirty", "l1i.tag"])
@pytest.mark.parametrize("level", ["uarch", "rtl"])
def test_lane_equivalence_on_cache_structures(level, structure):
    """Cache-array faults mutate the cache model itself (contents,
    tags, dirty state): the waypoint fork must carry them out and back
    without leaking one fault's cache into the next."""
    factory = make_factory("qsort", level)
    scalar = run_campaign(factory, "qsort", structure=structure,
                          level=level)
    batch = run_campaign(factory, "qsort", structure=structure,
                         level=level, batch_lanes=LANES)
    assert record_keys(batch) == record_keys(scalar)


# ----------------------------------------------------------------------
# walk edge cases on hand-placed injection instants
# ----------------------------------------------------------------------

#: Checkpoint stride of the edge-case campaigns: arch boundaries fall
#: on its multiples (the ISS drains in place, so no drain jitter).
STRIDE = 200


def placed_campaign(monkeypatch, offsets, lanes, warm=True,
                    after_exit=False, structure="regfile", level="arch",
                    factory=None, **config_kwargs):
    """A stringsearch campaign whose faults sit at hand-placed cycles:
    ``offsets`` are cycles (or, with ``after_exit``, offsets from the
    golden end cycle).  By default every boundary but the base is
    evicted (``checkpoint_bound=1``), so each seek replays through
    them."""
    def draw(self, bit_count, end_cycle):
        base = end_cycle if after_exit else 0
        return [FaultSpec(structure, (37 * j + 5) % bit_count, base + off)
                for j, off in enumerate(offsets)]

    monkeypatch.setattr(Campaign, "_draw_specs", draw)
    kwargs = {"checkpoint_interval": STRIDE, "checkpoint_bound": 1}
    kwargs.update(config_kwargs)
    return run_campaign(factory or make_factory("stringsearch", level),
                        "stringsearch", structure=structure, level=level,
                        samples=len(offsets), prune_mode="off",
                        warm_start=warm, batch_lanes=lanes, **kwargs)


#: Instants on both sides of the first three boundaries, several per
#: segment so one seek serves a walk across several instants.
STRADDLE = [STRIDE - 7, STRIDE - 1, STRIDE, STRIDE + 1, STRIDE + 40,
            2 * STRIDE - 1, 2 * STRIDE, 2 * STRIDE + 3, 3 * STRIDE + 11,
            3 * STRIDE + 12]


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_walk_straddles_evicted_boundaries(monkeypatch, warm):
    scalar = placed_campaign(monkeypatch, STRADDLE, lanes=1, warm=warm)
    batch = placed_campaign(monkeypatch, STRADDLE, lanes=8, warm=warm)
    assert record_keys(batch) == record_keys(scalar)
    # The first instant of each segment seeks, exactly as its scalar
    # run does; later ones walk on from the previous instant.
    segments = set()
    for walked, seeked in zip(batch.records, scalar.records):
        segment = walked.fault.cycle // STRIDE
        if segment in segments:
            assert walked.replay_cycles < seeked.replay_cycles
        else:
            assert walked.replay_cycles == seeked.replay_cycles
        segments.add(segment)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_walk_past_program_exit(monkeypatch, warm):
    """Instants past the golden end land in dead time, lane for lane,
    and the walk keeps going after them (a later group member seeks
    again rather than walking an exited machine)."""
    offsets = [-30, -5, 10, 100, 101]
    scalar = placed_campaign(monkeypatch, offsets, lanes=1, warm=warm,
                             after_exit=True)
    batch = placed_campaign(monkeypatch, offsets, lanes=8, warm=warm,
                            after_exit=True)
    keys = record_keys(batch)
    assert keys == record_keys(scalar)
    assert [k[3:] for k in keys[2:]] == [(AFTER_PROGRAM_END, 0)] * 3
    assert keys[0][3] != AFTER_PROGRAM_END


def test_walk_never_takes_the_scalar_path(monkeypatch):
    """The walk ends each fault in ``inject_and_classify`` itself, so
    ``FaultRunner.run_one`` -- the scalar fallback a trace counts -- is
    never reached under lanes."""
    scalar = placed_campaign(monkeypatch, STRADDLE, lanes=1)

    def scalar_path(self, sim, fault):
        raise AssertionError(f"lanes fell back to run_one: {fault}")

    monkeypatch.setattr(FaultRunner, "run_one", scalar_path)
    batch = placed_campaign(monkeypatch, STRADDLE, lanes=8)
    assert record_keys(batch) == record_keys(scalar)


@pytest.mark.parametrize("after_exit", [False, True],
                         ids=["straddle", "past-exit"])
def test_walk_accounting(monkeypatch, after_exit):
    """``batch_cycles`` is exactly the walk plus the tails: every record
    carries the walk cycles it added as ``replay_cycles``."""
    offsets = [-30, -5, 10, 100] if after_exit else STRADDLE
    batch = placed_campaign(monkeypatch, offsets, lanes=4,
                            after_exit=after_exit)
    assert batch.batch_cycles == sum(r.replay_cycles + r.sim_cycles
                                     for r in batch.records)


#: The look-ahead case's checkpoint stride: waypoints sit every quarter
#: stride (100 cycles) after each boundary.
LOOKAHEAD_STRIDE = 400


@pytest.mark.parametrize("level", ["uarch", "rtl"])
def test_walk_seeks_when_the_next_waypoint_is_nearer(monkeypatch, level):
    """The look-ahead rule on a pipelined tier: a fault whose golden
    waypoint lies past the previous instant seeks from it instead of
    walking on from a fork, and a fault whose waypoint lies behind the
    previous instant is walked to.  Records are the scalar records
    either way."""
    factory = make_factory("stringsearch", level)
    cache = CheckpointCache(stride=LOOKAHEAD_STRIDE)
    cache.capture_golden(factory())
    boundary = cache.cycles[2]
    spacing = cache.waypoint_spacing
    # A first; B past the waypoint at 2 x spacing, which lies past A;
    # C behind no waypoint later than B.
    offsets = [boundary + 10, boundary + 2 * spacing + 30,
               boundary + 2 * spacing + 60]
    assert cache.waypoint_at_or_before(2, offsets[1])["cycle"] > offsets[0]
    assert cache.waypoint_at_or_before(2, offsets[2])["cycle"] <= offsets[1]

    forks = []
    fork = LaneWalk._fork

    def spy(self):
        forks.append(self.sim.cycle)
        return fork(self)

    monkeypatch.setattr(LaneWalk, "_fork", spy)
    kwargs = {"level": level, "factory": factory,
              "checkpoint_interval": LOOKAHEAD_STRIDE,
              "checkpoint_bound": None}
    scalar = placed_campaign(monkeypatch, offsets, lanes=1, **kwargs)
    batch = placed_campaign(monkeypatch, offsets, lanes=8, **kwargs)
    assert record_keys(batch) == record_keys(scalar)
    # Only B forks (C walks on from it); A does not, B seeks.
    assert forks == [offsets[1]]
    replays = [r.replay_cycles for r in batch.records]
    assert replays[:2] == [r.replay_cycles for r in scalar.records[:2]]
    assert replays[2] == offsets[2] - offsets[1]


# ----------------------------------------------------------------------
# the whole registry at lanes=8 vs lanes=1
# ----------------------------------------------------------------------

#: Per tier: the structures the registry-wide identity pins.
REGISTRY_STRUCTURES = {"arch": ("regfile", "cpsr"),
                       "uarch": ("regfile", "l1d.data"),
                       "rtl": ("regfile", "l1d.data")}


@pytest.mark.parametrize(
    "level, workload, structure",
    [pytest.param(level, workload, structure,
                  id=tier_id(level, workload, structure))
     for level, structures in REGISTRY_STRUCTURES.items()
     for workload in WORKLOAD_NAMES for structure in structures])
def test_lane_identity_across_registry(level, workload, structure):
    factory = registry.create_frontend(level, workload).sim_factory
    kwargs = {"structure": structure, "level": level, "prune_mode": "off",
              "samples": 6 if level == "arch" else 4,
              # Both runs share one golden capture.
              "golden_pool": {}}
    scalar = run_campaign(factory, workload, **kwargs)
    batch = run_campaign(factory, workload, batch_lanes=8, **kwargs)
    assert record_keys(batch) == record_keys(scalar)


# ----------------------------------------------------------------------
# observation points beyond pinout
# ----------------------------------------------------------------------

#: With prune off, this seed's hvf sample (8 faults per structure on
#: stringsearch) reaches every branch of the outcome kernel.
OBSERVATION_SEED = 2

#: Register structures one arch observation case runs.
ARCH_OBSERVED = ("regfile", "cpsr")


@pytest.mark.parametrize(
    "level, observation, structures",
    [pytest.param("arch", "software", ARCH_OBSERVED, id="avf"),
     pytest.param("arch", "arch", ARCH_OBSERVED, id="hvf"),
     pytest.param("uarch", "software", ("regfile",), id="uarch-avf"),
     pytest.param("rtl", "software", ("regfile",), id="rtl-sop-regfile"),
     pytest.param("rtl", "software", ("cpsr",), id="rtl-sop-cpsr")])
def test_lane_equivalence_across_observation_points(level, observation,
                                                     structures):
    """The lane walk classifies through the same outcome kernel as the
    scalar path under the program-output (AVF/SOP) and hardware-state
    (HVF) observation points too, not just the pinout."""
    factory = make_factory("stringsearch", level)
    classes = set()
    for structure in structures:
        kwargs = {"structure": structure, "level": level, "window": None,
                  "observation": observation, "seed": OBSERVATION_SEED,
                  "prune_mode": "off"}
        scalar = record_keys(run_campaign(factory, "stringsearch",
                                          **kwargs))
        batch = record_keys(run_campaign(factory, "stringsearch",
                                         batch_lanes=8, **kwargs))
        assert batch == scalar, f"{level}/{observation}/{structure}"
        classes |= {key[2] for key in scalar}
    if observation == "arch":
        assert classes == {FaultClass.DUE, FaultClass.HANG,
                           FaultClass.LATENT, FaultClass.MASKED,
                           FaultClass.SDC}


# ----------------------------------------------------------------------
# store round-trips across lane counts
# ----------------------------------------------------------------------

def test_store_round_trip_across_lane_counts(tmp_path):
    """Records written by the scalar path resume under the lane walk
    (and vice versa): ``batch_lanes`` is execution-only, outside the
    store identity."""
    factory = make_factory("stringsearch")
    reference = run_campaign(factory, "stringsearch")
    run_campaign(factory, "stringsearch",
                 store=CampaignStore(tmp_path / "scalar"))

    # Interrupt the scalar store after 3 faults; finish under lanes=4.
    partial = tmp_path / "partial"
    shutil.copytree(tmp_path / "scalar", partial)
    truncate_records(partial, 3)
    resumed = run_campaign(factory, "stringsearch", batch_lanes=LANES,
                           store=CampaignStore(partial), resume=True)
    assert resumed.resumed == 3
    assert record_keys(resumed) == record_keys(reference)

    # And the other direction: a lanes=4 store resumes scalar.
    run_campaign(factory, "stringsearch", batch_lanes=LANES,
                 store=CampaignStore(tmp_path / "lanes"))
    resumed = run_campaign(factory, "stringsearch",
                           store=CampaignStore(tmp_path / "lanes"),
                           resume=True)
    assert resumed.resumed == reference.n
    assert record_keys(resumed) == record_keys(reference)


# ----------------------------------------------------------------------
# the acceptance pin: the fig1 grid, lanes=8 vs lanes=1
# ----------------------------------------------------------------------

def fig1_spec(lanes):
    """The shipped fig1 preset (uarch and rtl cells), cut to one
    workload and six faults per cell."""
    mapping = load_mapping(preset_path("fig1"))
    mapping.pop("present", None)
    mapping.setdefault("targets", {})["workloads"] = ["stringsearch"]
    mapping.setdefault("faults", {})["samples"] = 6
    mapping.setdefault("execution", {})["lanes"] = lanes
    return ScenarioSpec.from_mapping(mapping, source="fig1-lanes")


def test_fig1_preset_classes_identical_at_lanes_8():
    results = {lanes: ScenarioRunner(fig1_spec(lanes)).run()
               for lanes in (8, 1)}
    assert len(results[8]) == len(results[1]) > 1
    assert {cell.level for cell, _ in results[8]} == {"uarch", "rtl"}
    for (_, batch), (_, scalar) in zip(results[8], results[1]):
        assert record_keys(batch) == record_keys(scalar)
        assert batch.n == 6
