"""The cross-lane equivalence matrix for the rtl-tier lane backend.

PR 6 pinned the arch-tier lane engine (``test_batch_equivalence.py``);
this file pins the rtl backend (:mod:`repro.batch.rtl`): for a fixed
seed, an rtl campaign run at ``batch_lanes=N`` yields records
bit-identical to the scalar path, fault for fault, across the same
strategy matrix --

* **prune modes** -- the simulate-only partition feeds the lane engine
  exactly the faults the scalar path would simulate;
* **jobs=1 vs jobs=N** -- each worker batches its own slice;
* **warm vs cold start** -- lane groups restore from the same
  checkpoint (or replay the same prefix) the scalar runner would;
* **scalar fallback** -- CPSR flips divert conditional branches within
  a few cycles, so the drop-to-scalar side must carry the campaign;
  cache-array structures never vectorize at all.

Identity is asserted on ``record_keys`` (fault identity, class, detail,
simulated cycles -- per-session accounting excluded, as everywhere).
The campaigns here run a small-cache, trace-free ``RTLConfig`` so the
matrix stays cheap; the full-size configuration is exercised by the
``bench-smoke`` sweep diff and ``benchmarks/test_batch_rtl_speedup.py``.
"""

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.rtl import RTLConfig, RTLSim
from repro.workloads import registry as workloads
from support import record_keys

SAMPLES = 8
SEED = 13
WINDOW = 800
LANES = 4
#: Faults per matrix cell, by prune mode.  At this window, dead pruning
#: resolves all of 8 faults on both workloads without simulation, so
#: the prune=dead cells draw more to leave the lane engine 4-7 faults.
MATRIX_SAMPLES = {"off": SAMPLES, "dead": 64}

FAST_RTL = RTLConfig(trace_signals=False, dcache_size=1024,
                     icache_size=1024)


class RTLFactory:
    """Picklable sim factory (jobs=2 ships it to forked workers)."""

    def __init__(self, workload):
        self.workload = workload

    def __call__(self):
        return RTLSim(workloads.build(self.workload), FAST_RTL)


def run_campaign(factory, workload, structure="regfile", **config_kwargs):
    kwargs = {"samples": SAMPLES, "window": WINDOW, "seed": SEED}
    kwargs.update(config_kwargs)
    config = CampaignConfig(**kwargs)
    campaign = Campaign(factory, structure, config,
                        workload=workload, level="rtl")
    return campaign.run()


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
    factory = RTLFactory(workload)
    samples = MATRIX_SAMPLES[prune]
    reference = run_campaign(factory, workload, prune_mode=prune,
                             samples=samples)
    assert reference.n == samples
    assert reference.simulated_count >= LANES
    return workload, prune, factory, record_keys(reference)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_rtl_lane_equivalence_matrix(scalar_reference, jobs, warm):
    """lanes=N x {jobs=1,2} x {warm,cold} x {prune off,dead} == the
    scalar warm serial reference."""
    workload, prune, factory, reference = scalar_reference
    result = run_campaign(factory, workload, prune_mode=prune,
                          samples=MATRIX_SAMPLES[prune],
                          warm_start=warm, jobs=jobs, batch_lanes=LANES)
    assert record_keys(result) == reference, (
        f"{workload}: lanes={LANES} prune={prune} warm={warm} "
        f"jobs={jobs} diverged from the scalar reference"
    )


def test_rtl_batch_cycles_accounted_serially(scalar_reference):
    """The serial lane engine reports its global stepped cycles -- the
    denominator of the published ``batch_rtl_speedup`` series."""
    workload, prune, factory, _ = scalar_reference
    samples = MATRIX_SAMPLES[prune]
    result = run_campaign(factory, workload, prune_mode=prune,
                          samples=samples, batch_lanes=LANES)
    assert result.batch_cycles > 0
    assert result.batch_lane_peak_bytes > 0
    scalar = run_campaign(factory, workload, prune_mode=prune,
                          samples=samples)
    assert scalar.batch_cycles == 0
    assert scalar.batch_lane_peak_bytes == 0


# ----------------------------------------------------------------------
# divergence-heavy configurations: the scalar-fallback side
# ----------------------------------------------------------------------

def test_cpsr_faults_force_pipeline_divergence():
    """CPSR flag flips divert conditional branches at the next
    ``cond_passed`` enforce point, flushing the shared pipeline
    trajectory -- most lanes are dropped to the scalar rerun path, and
    the records must still match the scalar campaign bit for bit."""
    factory = RTLFactory("stringsearch")
    scalar = run_campaign(factory, "stringsearch", structure="cpsr",
                          samples=16, window=4000)
    batch = run_campaign(factory, "stringsearch", structure="cpsr",
                         samples=16, window=4000, batch_lanes=8)
    keys = record_keys(batch)
    assert keys == record_keys(scalar)
    # The config earns its name: a real mix of survivors and casualties.
    assert len({k[2] for k in keys}) > 1, "all faults classified alike"


@pytest.mark.parametrize("structure", ["regfile", "cpsr"])
def test_rtl_lane_equivalence_sop(structure):
    """Software-output observation to program end (the paper's SOP
    mode): lanes classify through the same outcome kernel as the
    scalar path, not just under the pinout."""
    factory = RTLFactory("stringsearch")
    kwargs = {"structure": structure, "window": None,
              "observation": "software", "prune_mode": "off"}
    scalar = run_campaign(factory, "stringsearch", **kwargs)
    batch = run_campaign(factory, "stringsearch", batch_lanes=8, **kwargs)
    assert record_keys(batch) == record_keys(scalar)


@pytest.mark.parametrize("structure", ["l1d.data", "l1d.dirty", "l1i.tag"])
def test_cache_structures_fall_back_to_scalar(structure):
    """Cache-array faults never vectorize (the lane store models RAM
    plus the fault-free cache image, not per-lane array state): the
    engine must route them through the scalar runner unchanged."""
    factory = RTLFactory("qsort")
    scalar = run_campaign(factory, "qsort", structure=structure)
    batch = run_campaign(factory, "qsort", structure=structure,
                         batch_lanes=LANES)
    assert record_keys(batch) == record_keys(scalar)
    # Nothing vectorized, so no lane store was ever materialized.
    assert batch.batch_lane_peak_bytes == 0
