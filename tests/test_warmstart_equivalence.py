"""The cross-tier warm-start equivalence matrix.

The campaign engine promises that its acceleration machinery is pure
wall-clock optimisation: for a fixed seed, the per-fault record sequence
is bit-identical across

* **warm vs cold start** -- restoring the nearest golden checkpoint vs
  replaying the whole drain-punctuated prefix from the base checkpoint;
* **jobs=1 vs jobs=N** -- the serial loop vs the process-pool executor;
* **bounded vs unbounded checkpoint cache** -- LRU eviction only moves
  the restore point, never the reached state.

This suite pins that promise on **every registered backend** (the
paper's three tiers: arch, uarch, rtl), which is the cross-tier
equivalence matrix the acceptance criteria name.  On the pipelined
tiers, where a warm seek may also resume an in-flight golden waypoint
(see tests/test_waypoints.py), the warm/cold x jobs matrix runs over
every registry workload.  Identity is asserted on everything a record
carries except wall clock: fault identity, class, detail and simulated
cycles.
"""

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.sim import registry
from repro.workloads import WORKLOAD_NAMES
from support import record_keys

WORKLOAD = "stringsearch"
SAMPLES = 6
SEED = 13
WINDOW = 800
REGISTRY_SAMPLES = 4

ALL_LEVELS = registry.level_names()


def run_campaign(factory, level, workload=WORKLOAD, golden_pool=None,
                 **config_kwargs):
    config_kwargs.setdefault("samples", SAMPLES)
    # Every fault simulates: the matrix compares simulated paths, and at
    # this window dead pruning resolves every rtl fault without one.
    config_kwargs.setdefault("prune_mode", "off")
    config = CampaignConfig(window=WINDOW, seed=SEED, **config_kwargs)
    campaign = Campaign(factory, "regfile", config,
                        workload=workload, level=level)
    return campaign.run(golden_pool=golden_pool)


@pytest.fixture(scope="module", params=ALL_LEVELS)
def level_reference(request):
    """Per level: the factory plus the warm, serial reference records."""
    level = request.param
    factory = registry.create_frontend(level, WORKLOAD).sim_factory
    reference = run_campaign(factory, level)
    assert reference.n == SAMPLES
    return level, factory, record_keys(reference)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("warm", [True, False],
                         ids=["warm", "cold"])
def test_equivalence_matrix(level_reference, jobs, warm):
    """backend x {jobs=1,2} x {warm,cold} == the serial warm reference."""
    level, factory, reference = level_reference
    result = run_campaign(factory, level, warm_start=warm, jobs=jobs)
    assert record_keys(result) == reference, (
        f"{level}: warm={warm} jobs={jobs} diverged from the serial "
        f"warm reference"
    )


@pytest.fixture(scope="module", params=[
    (level, workload) for level in ("uarch", "rtl")
    for workload in WORKLOAD_NAMES], ids=lambda p: f"{p[0]}-{p[1]}")
def registry_reference(request):
    """Per pipelined (level, workload): the factory, a golden pool
    shared by the matrix (the capture does not depend on warm/cold or
    jobs) and the serial warm records.  Every fault simulates."""
    level, workload = request.param
    factory = registry.create_frontend(level, workload).sim_factory
    pool = {}
    reference = run_campaign(factory, level, workload, pool,
                             samples=REGISTRY_SAMPLES)
    assert reference.n == REGISTRY_SAMPLES
    return level, workload, factory, pool, record_keys(reference)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("warm", [True, False],
                         ids=["warm", "cold"])
def test_registry_equivalence_matrix(registry_reference, jobs, warm):
    """{uarch,rtl} x every workload x {jobs=1,2} x {warm,cold} == the
    serial warm reference."""
    level, workload, factory, pool, reference = registry_reference
    result = run_campaign(factory, level, workload, pool,
                          samples=REGISTRY_SAMPLES,
                          warm_start=warm, jobs=jobs)
    assert record_keys(result) == reference, (
        f"{level}/{workload}: warm={warm} jobs={jobs} diverged")


def test_bounded_cache_matches_unbounded(level_reference):
    """LRU eviction moves restore points, never classifications."""
    level, factory, reference = level_reference
    bounded = run_campaign(factory, level, checkpoint_bound=2)
    assert record_keys(bounded) == reference, level


def test_warm_start_replays_less(level_reference):
    """The acceleration is real: warm replays strictly fewer cycles
    than cold (the faulty phases being bit-identical otherwise)."""
    level, factory, _ = level_reference
    warm = run_campaign(factory, level)
    cold = run_campaign(factory, level, warm_start=False)
    warm_replay = sum(r.replay_cycles for r in warm.records)
    cold_replay = sum(r.replay_cycles for r in cold.records)
    assert warm_replay < cold_replay, level
    assert warm.simulated_cycles < cold.simulated_cycles, level


def test_early_stop_preserves_classifications():
    """Early-stop (DRAIN_FREE tiers) terminates masked runs at the
    first re-convergent boundary without changing any classification,
    in every observation mode that runs to program end."""
    factory = registry.create_frontend("arch", WORKLOAD).sim_factory
    for observation in ("software", "arch"):
        results = {}
        for early in (True, False):
            config = CampaignConfig(samples=10, window=None,
                                    observation=observation, seed=7,
                                    early_stop=early)
            results[early] = Campaign(factory, "regfile", config,
                                      workload=WORKLOAD,
                                      level="arch").run()
        classes = [r.fclass for r in results[True].records]
        assert classes == [r.fclass for r in results[False].records]
        assert (results[True].simulated_cycles
                < results[False].simulated_cycles), observation
        converged = [r for r in results[True].records
                     if r.detail == "re-converged with golden"]
        assert converged, "early stop never fired on a masked run"
        assert all(r.fclass.safe for r in converged)
