"""Ablation A3: the "different toolchains" residual error (SS III-C).

The paper could not run identical binaries on the two flows and lists
that as an uncontrollable error source.  Our assembler *can* produce
identical binaries, so this ablation quantifies the error the paper
could not: cross-level RF deltas with different toolchains (the paper's
situation) vs the same binary on both levels.
"""

from conftest import bench_samples, save_artifact

from repro.analysis.compare import CrossLevelComparison
from repro.analysis.report import render_table
from repro.scenario import ScenarioRunner, load_preset

WORKLOADS = ("sha", "qsort")


def _mean_delta(same_binaries, samples):
    # One runner per toolchain setting: a cell's identity does not
    # cover same_binaries, so a shared cell cache would mix the two.
    spec = load_preset("fig1", overrides=[
        "targets.workloads=" + ",".join(WORKLOADS),
        f"faults.samples={samples}",
        f"execution.same_binaries={str(same_binaries).lower()}",
    ])
    cells = [cell for cell in spec.cells() if cell.mode == "pinout"]
    results = ScenarioRunner(spec).run(cells)
    comparison = CrossLevelComparison("regfile")
    for workload in WORKLOADS:
        comparison.add_results(
            results.where(level="uarch", workload=workload).one(),
            results.where(level="rtl", workload=workload).one())
    return comparison


def test_toolchain_effect(benchmark):
    samples = bench_samples()

    def run():
        return (_mean_delta(False, samples), _mean_delta(True, samples))

    cross, same = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        ("binaries", "mean |delta| (pp)", "mean |delta| (rel)"),
        [
            ("different toolchains (paper's setup)",
             f"{cross.mean_percentile_units:.1f}",
             f"{100 * cross.mean_relative:.0f}%"),
            ("same binary on both levels",
             f"{same.mean_percentile_units:.1f}",
             f"{100 * same.mean_relative:.0f}%"),
        ],
        title=f"A3: toolchain-difference contribution to the cross-level "
              f"delta ({samples} faults/series)",
    )
    save_artifact("ablation_toolchain.txt", text)
    print()
    print(text)
    assert cross.deltas and same.deltas
