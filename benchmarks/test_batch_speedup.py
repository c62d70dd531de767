"""Micro-benchmark: the lane walk vs scalar campaigns, per tier.

Runs the Fig. 1 register-file configuration twice with the same seed
on each tier: scalar (``batch_lanes=1``, one seek and advance per
fault) and batched (``batch_lanes=8``, the walk of
:mod:`repro.batch.engine`: faults in injection-cycle order, one seek
shared by up to eight instants of a checkpoint segment, each later
instant reached by walking on from a fork at the previous one).
Records both into ``benchmarks/results/batch_speedup.txt`` (arch) and
``benchmarks/results/batch_rtl_speedup.txt`` (rtl).

Two speedup numbers are reported:

* **deterministic** -- the ratio of scalar faulty-phase *simulated
  cycles* (replay + tail per fault) to the walk's *stepped cycles*
  (``CampaignResult.batch_cycles``: walk cycles plus tails).  Every
  tail still runs on its own, so the walk saves replay only; the ratio
  is hardware-independent and asserted unconditionally, per tier, a
  little under its measured value (:data:`CYCLE_BARS`).  It grows with
  sample density (denser samples put more instants in each segment),
  hence the bench floor of 128 samples.  The rtl bar is lower: the
  golden run's in-flight waypoints already cut each scalar rtl replay
  to at most a quarter stride, so the walk has less replay left to
  share;
* **wall clock** -- the measured end-to-end ratio on this host.
  Informational by default; set ``REPRO_BENCH_ASSERT_SPEEDUP=1`` to
  fail unless it beats 1x.

Correctness is asserted unconditionally: batched and scalar records
must be bit-identical (``tests/test_batch_equivalence.py`` pins the
same promise across the execution matrix; this bench re-checks it at
bench scale).

The rtl run is ``prune_mode="off"`` with signal tracing off: it
measures engine throughput, so every sampled fault must reach the
walk rather than the lifetime pruner, and the scalar and batched runs
would pay tracing identically.

Knobs: ``REPRO_SFI_SAMPLES`` (faults, floored at 128 here).
"""

import os
import time

import pytest
from conftest import bench_samples, record_keys, save_artifact

from repro.injection.campaign import Campaign, CampaignConfig
from repro.rtl import RTLConfig, RTLSim
from repro.sim import registry
from repro.workloads import registry as workloads

WORKLOAD = "stringsearch"
LANES = 8
#: The cycle-ratio bar needs sample density (instants sharing a
#: segment share its seek): 128 faults clear the bars with slack.
MIN_SAMPLES = 128
#: Per tier: the deterministic cycle-ratio bar (measured: arch 1.67x,
#: rtl 1.16x at 128 faults, seed 2017).
CYCLE_BARS = {"arch": 1.5, "rtl": 1.1}
ARTIFACTS = {"arch": "batch_speedup.txt", "rtl": "batch_rtl_speedup.txt"}
#: How each tier's campaign is configured beyond the shared knobs.
SETUP = {"arch": "(fig1 config, arch tier)",
         "rtl": "prune=off (fig1 config, rtl tier, trace off)"}

RTL_CFG = RTLConfig(trace_signals=False)


def sim_factory(level):
    if level == "rtl":
        program = workloads.build(WORKLOAD)
        return lambda: RTLSim(program, RTL_CFG)
    return registry.create_frontend(level, WORKLOAD).sim_factory


def run_campaign(level, factory, lanes):
    samples = max(bench_samples(default=MIN_SAMPLES), MIN_SAMPLES)
    extra = {"prune_mode": "off"} if level == "rtl" else {}
    config = CampaignConfig(samples=samples, seed=2017,
                            batch_lanes=lanes, **extra)
    campaign = Campaign(factory, "regfile", config,
                        workload=WORKLOAD, level=level)
    started = time.perf_counter()
    result = campaign.run()
    return result, time.perf_counter() - started


@pytest.mark.parametrize("level", sorted(CYCLE_BARS))
def test_batch_speedup(benchmark, level):
    factory = sim_factory(level)
    scalar, scalar_s = run_campaign(level, factory, lanes=1)
    batch, batch_s = benchmark.pedantic(
        run_campaign, args=(level, factory, LANES), rounds=1, iterations=1)
    # Correctness first: the lane walk must be a pure throughput
    # optimisation, never a result change.
    assert record_keys(batch) == record_keys(scalar)
    assert batch.batch_cycles > 0, "lane walk never engaged"

    cycle_speedup = scalar.simulated_cycles / batch.batch_cycles
    wall_speedup = scalar_s / batch_s if batch_s > 0 else 1.0
    # The acceptance bar, asserted on the deterministic metric.
    assert cycle_speedup >= CYCLE_BARS[level], (
        f"{level} lane walk stepped {batch.batch_cycles} cycles vs "
        f"{scalar.simulated_cycles} scalar -- only {cycle_speedup:.2f}x"
    )
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        assert wall_speedup > 1.0, (
            f"{level} lane walk not faster on this host: {batch_s:.2f}s "
            f"vs {scalar_s:.2f}s scalar"
        )
    # Deterministic lines only in the artifact (cycle counts are exact
    # for a fixed seed); the host wall clock is printed, not persisted.
    lines = [
        f"workload={WORKLOAD} structure=regfile mode=pinout"
        f" samples={scalar.n} lanes={LANES} seed=2017 {SETUP[level]}",
        f"scalar (lanes=1): {scalar.simulated_cycles:>9} faulty-phase"
        f" cycles",
        f"batched (lanes={LANES}): {batch.batch_cycles:>9} stepped"
        f" cycles (walk + tails)",
        f"speedup: {cycle_speedup:.2f}x simulated cycles"
        f" (deterministic)",
        "records identical: True",
    ]
    text = "\n".join(lines)
    save_artifact(ARTIFACTS[level], text)
    print()
    print(text)
    print(f"wall clock (this host): scalar {scalar_s:.2f}s, batched"
          f" {batch_s:.2f}s -> {wall_speedup:.2f}x")
