"""The cross-lane equivalence matrix for the arch lane engine.

``repro.batch`` promises that the arch tier's shared-advance walk
(:mod:`repro.batch.arch`) is pure throughput optimisation: for a fixed
seed, the per-fault record
sequence of an arch-tier campaign run at ``batch_lanes=N`` is
bit-identical to the scalar path (``batch_lanes=1``), fault for fault,
across every execution strategy the campaign engine composes it with --

* **prune modes** -- the simulate-only partition feeds the lane engine
  exactly the faults the scalar path would simulate;
* **jobs=1 vs jobs=N** -- each worker batches its own slice;
* **warm vs cold start** -- the walk seeks from the same checkpoint
  (or replays the same prefix) the scalar runner would;
* **store round-trips** -- records written at one lane count resume at
  another;
* **observation points** -- AVF (program output) and HVF (hardware
  state) as well as the pinout.

Identity is asserted on everything a record carries except per-session
accounting: fault identity, class, detail and simulated cycles
(``record_keys``).  The walk's edge cases (instants straddling an
evicted checkpoint boundary, instants past program exit, the cycle
accounting) run on hand-placed fault instants, and every registry
workload is pinned at ``lanes=8`` vs ``lanes=1``.  The final test pins
the acceptance criterion: the ``fig1`` preset grid, retargeted onto
the batchable arch tier, yields bit-identical per-fault classes at
``lanes=8`` vs ``lanes=1``.
"""

import shutil

import pytest

from repro.injection.campaign import Campaign, CampaignConfig, FaultRunner
from repro.injection.classify import AFTER_PROGRAM_END, FaultClass
from repro.injection.faults import FaultSpec
from repro.injection.store import CampaignStore
from repro.scenario.presets import preset_path
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import ScenarioSpec, load_mapping
from repro.sim import registry
from repro.workloads.registry import WORKLOAD_NAMES
from support import record_keys, truncate_records

SAMPLES = 8
SEED = 13
WINDOW = 800
LANES = 4


def make_factory(workload):
    return registry.create_frontend("arch", workload).sim_factory


def run_campaign(factory, workload, structure="regfile", **config_kwargs):
    kwargs = {"samples": SAMPLES, "window": WINDOW, "seed": SEED}
    kwargs.update(config_kwargs)
    store = kwargs.pop("store", None)
    resume = kwargs.pop("resume", False)
    config = CampaignConfig(**kwargs)
    campaign = Campaign(factory, structure, config,
                        workload=workload, level="arch")
    return campaign.run(store=store, resume=resume)


# ----------------------------------------------------------------------
# the matrix: workloads x prune x jobs x warm/cold
# ----------------------------------------------------------------------

@pytest.fixture(scope="module",
                params=[("stringsearch", "off"), ("stringsearch", "dead"),
                        ("sha", "off"), ("sha", "dead")],
                ids=lambda p: f"{p[0]}-prune_{p[1]}")
def scalar_reference(request):
    """Per (workload, prune): the factory plus the scalar warm serial
    reference records."""
    workload, prune = request.param
    factory = make_factory(workload)
    reference = run_campaign(factory, workload, prune_mode=prune)
    assert reference.n == SAMPLES
    return workload, prune, factory, record_keys(reference)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_lane_equivalence_matrix(scalar_reference, jobs, warm):
    """lanes=N x {jobs=1,2} x {warm,cold} x {prune off,dead} == the
    scalar warm serial reference."""
    workload, prune, factory, reference = scalar_reference
    result = run_campaign(factory, workload, prune_mode=prune,
                          warm_start=warm, jobs=jobs, batch_lanes=LANES)
    assert record_keys(result) == reference, (
        f"{workload}: lanes={LANES} prune={prune} warm={warm} "
        f"jobs={jobs} diverged from the scalar reference"
    )


def test_batch_cycles_accounted_serially(scalar_reference):
    """The serial lane engine reports the cycles it stepped -- the
    denominator of the published ``batch_speedup`` series (the ratio is
    asserted in ``benchmarks/test_batch_speedup.py``; here we pin the
    accounting itself)."""
    workload, prune, factory, _ = scalar_reference
    result = run_campaign(factory, workload, prune_mode=prune,
                          batch_lanes=LANES)
    assert result.batch_cycles > 0
    scalar = run_campaign(factory, workload, prune_mode=prune)
    assert scalar.batch_cycles == 0


# ----------------------------------------------------------------------
# divergence-heavy configuration
# ----------------------------------------------------------------------

def test_cpsr_faults_force_heavy_divergence():
    """CPSR flag flips divert conditional branches immediately, so most
    faulty tails leave the golden path within a few instructions; the
    walk must still rewind to the golden machine after each one, and
    the records must match the scalar path bit for bit."""
    factory = make_factory("stringsearch")
    scalar = run_campaign(factory, "stringsearch", structure="cpsr",
                          samples=16, window=2000)
    batch = run_campaign(factory, "stringsearch", structure="cpsr",
                         samples=16, window=2000, batch_lanes=8)
    keys = record_keys(batch)
    assert keys == record_keys(scalar)
    # The config earns its name: a real mix of survivors and casualties.
    assert len({k[2] for k in keys}) > 1, "all faults classified alike"


# ----------------------------------------------------------------------
# walk edge cases on hand-placed injection instants
# ----------------------------------------------------------------------

#: Checkpoint stride of the edge-case campaigns: arch boundaries fall
#: on its multiples (the ISS drains in place, so no drain jitter).
STRIDE = 200


def placed_campaign(monkeypatch, offsets, lanes, warm=True,
                    after_exit=False, structure="regfile"):
    """A stringsearch campaign whose faults sit at hand-placed cycles:
    ``offsets`` are cycles (or, with ``after_exit``, offsets from the
    golden end cycle).  Every boundary but the base is evicted
    (``checkpoint_bound=1``), so each seek replays through them."""
    def draw(self, bit_count, end_cycle):
        base = end_cycle if after_exit else 0
        return [FaultSpec(structure, (37 * j + 5) % bit_count, base + off)
                for j, off in enumerate(offsets)]

    monkeypatch.setattr(Campaign, "_draw_specs", draw)
    return run_campaign(make_factory("stringsearch"), "stringsearch",
                        structure=structure, samples=len(offsets),
                        prune_mode="off", checkpoint_interval=STRIDE,
                        checkpoint_bound=1, warm_start=warm,
                        batch_lanes=lanes)


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
    never reached for arch lanes."""
    scalar = placed_campaign(monkeypatch, STRADDLE, lanes=1)

    def scalar_path(self, sim, fault):
        raise AssertionError(f"arch lanes fell back to run_one: {fault}")

    monkeypatch.setattr(FaultRunner, "run_one", scalar_path)
    batch = placed_campaign(monkeypatch, STRADDLE, lanes=8)
    assert record_keys(batch) == record_keys(scalar)


@pytest.mark.parametrize("after_exit", [False, True],
                         ids=["straddle", "past-exit"])
def test_walk_accounting(monkeypatch, after_exit):
    """``batch_cycles`` is exactly the walk plus the tails: every record
    carries the walk cycles it added as ``replay_cycles``, and the arch
    walk holds no lane pages."""
    offsets = [-30, -5, 10, 100] if after_exit else STRADDLE
    batch = placed_campaign(monkeypatch, offsets, lanes=4,
                            after_exit=after_exit)
    assert batch.batch_cycles == sum(r.replay_cycles + r.sim_cycles
                                     for r in batch.records)
    assert batch.batch_lane_peak_bytes == 0


# ----------------------------------------------------------------------
# the whole registry at lanes=8 vs lanes=1
# ----------------------------------------------------------------------

@pytest.mark.parametrize("structure", ["regfile", "cpsr"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_lane_identity_across_registry(workload, structure):
    factory = make_factory(workload)
    kwargs = {"structure": structure, "samples": 6, "prune_mode": "off"}
    scalar = run_campaign(factory, workload, **kwargs)
    batch = run_campaign(factory, workload, batch_lanes=8, **kwargs)
    assert record_keys(batch) == record_keys(scalar)


# ----------------------------------------------------------------------
# observation points beyond pinout
# ----------------------------------------------------------------------

#: With prune off, this seed's hvf sample (8 faults per structure on
#: stringsearch) reaches every branch of the outcome kernel.
OBSERVATION_SEED = 2


@pytest.mark.parametrize("observation", ["software", "arch"],
                         ids=["avf", "hvf"])
def test_lane_equivalence_across_observation_points(observation):
    """The lane engine classifies through the same outcome kernel as
    the scalar path under the program-output (AVF) and hardware-state
    (HVF) observation points too, not just the pinout."""
    factory = make_factory("stringsearch")
    classes = set()
    for structure in ("regfile", "cpsr"):
        kwargs = {"structure": structure, "window": None,
                  "observation": observation, "seed": OBSERVATION_SEED,
                  "prune_mode": "off"}
        scalar = record_keys(run_campaign(factory, "stringsearch",
                                          **kwargs))
        batch = record_keys(run_campaign(factory, "stringsearch",
                                         batch_lanes=8, **kwargs))
        assert batch == scalar, f"{observation}/{structure} diverged"
        classes |= {key[2] for key in scalar}
    if observation == "arch":
        assert classes == {FaultClass.DUE, FaultClass.HANG,
                           FaultClass.LATENT, FaultClass.MASKED,
                           FaultClass.SDC}


# ----------------------------------------------------------------------
# store round-trips across lane counts
# ----------------------------------------------------------------------

def test_store_round_trip_across_lane_counts(tmp_path):
    """Records written by the scalar path resume under the lane engine
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
# the acceptance pin: fig1 grid at the arch tier, lanes=8 vs lanes=1
# ----------------------------------------------------------------------

def fig1_at_arch(lanes):
    """The fig1 preset mapping retargeted onto the arch tier (the
    shipped preset's uarch cells reject ``lanes > 1`` by design; the
    rtl cells batch since PR 7 and are pinned in
    ``test_batch_rtl_equivalence.py``)."""
    mapping = load_mapping(preset_path("fig1"))
    mapping.pop("present", None)
    mapping["grid"] = [{"levels": ["arch"], "modes": ["pinout"]}]
    mapping.setdefault("targets", {})["workloads"] = ["stringsearch"]
    mapping.setdefault("faults", {})["samples"] = 6
    mapping.setdefault("execution", {})["lanes"] = lanes
    return ScenarioSpec.from_mapping(mapping, source="fig1-at-arch")


def test_fig1_preset_classes_identical_at_lanes_8():
    results = {lanes: ScenarioRunner(fig1_at_arch(lanes)).run()
               for lanes in (8, 1)}
    assert len(results[8]) == len(results[1]) == 1
    for (_, batch), (_, scalar) in zip(results[8], results[1]):
        assert record_keys(batch) == record_keys(scalar)
        assert batch.n == 6
