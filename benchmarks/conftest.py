"""Shared fixtures for the table/figure regeneration benches.

Every bench both *measures* (via pytest-benchmark) and *regenerates* the
corresponding artifact, writing the rendered text to
``benchmarks/results/`` so EXPERIMENTS.md can cite actual output.

**Artifact stability contract**: result files are stable, sorted and
timestamp-free -- deterministic for a fixed seed -- so a rerun with
unchanged measurements produces an empty diff.  Host-dependent wall
clocks are *printed* by the benches, never persisted (the sole
exception is the Table II family, whose measurement *is* throughput).
Campaign artifacts therefore report deterministic cycle/run counts
(``campaign_table``'s ``kcyc/sim`` column, the warm-start cycle ratio,
the prune simulated-run ratio) instead of seconds.

Knobs:

* ``REPRO_SFI_SAMPLES``  -- faults per (workload, structure, mode)
  series (default 32 here; the Leveugle-exact count is ~4000 and every
  result records the error margin its sample size actually achieves);
* ``REPRO_BENCH_WORKLOADS`` -- comma-separated subset for quick runs.
"""

import os
import pathlib

import pytest

from repro.scenario import ScenarioRunner, load_preset
from repro.workloads.registry import WORKLOAD_NAMES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_samples(default=32):
    return int(os.environ.get("REPRO_SFI_SAMPLES", str(default)))


def bench_workloads():
    text = os.environ.get("REPRO_BENCH_WORKLOADS", "")
    if not text:
        return WORKLOAD_NAMES
    return tuple(w.strip() for w in text.split(",") if w.strip())


def bench_preset(name):
    """Preset ``name`` at the bench budget: the bench workloads, the
    bench sample count and the paper seed."""
    return load_preset(name, overrides=[
        "targets.workloads=" + ",".join(bench_workloads()),
        f"faults.samples={bench_samples()}",
        "faults.seed=2017",
    ])


@pytest.fixture(scope="session")
def run_preset():
    """Run a preset at the bench budget: ``run_preset(name)`` returns
    ``(spec, ResultSet)``.

    Cells are filtered to the bench workloads, including grid blocks
    that pin their own (Fig. 3's), so ``REPRO_BENCH_WORKLOADS`` bounds
    every preset.  One runner serves the whole session, so a preset
    whose cells an earlier bench already ran (headline after fig1 and
    fig3) recalls them from the runner's cell cache.
    """
    runner = ScenarioRunner(bench_preset("fig1"))
    workloads = bench_workloads()

    def run(name):
        spec = bench_preset(name)
        return spec, runner.run([cell for cell in spec.cells()
                                 if cell.workload in workloads])

    return run


def save_artifact(name, text):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


def record_keys(result):
    """A campaign's records projected onto the bit-identity contract
    (fault, class, detail, simulated tail -- wall clock and replay
    accounting excluded).  Mirrors tests/support.py."""
    return [
        (r.fault.bit, r.fault.cycle, r.fclass, r.detail, r.sim_cycles)
        for r in result.records
    ]
