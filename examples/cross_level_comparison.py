#!/usr/bin/env python3
"""A miniature of the paper's whole study on two workloads.

Reproduces the experimental design of SS III-IV: equivalent setups at the
two abstraction levels, identical fault model and observation points,
then the cross-level deltas in percentile units and relative terms.
The fig1, fig3 and headline presets run through one ScenarioRunner, so
the headline recalls every campaign the two figures already ran.

Run:  python examples/cross_level_comparison.py
"""

import os

from repro import ScenarioRunner, load_preset
from repro.analysis.report import render_table
from repro.core.figures import chart_from_resultset, comparisons_from_resultset

# Both are among the short workloads Fig. 3's RTL flow can afford.
WORKLOADS = ("caes", "stringsearch")
SAMPLES = int(os.environ.get("REPRO_SFI_SAMPLES", "30"))
OVERRIDES = ["targets.workloads=" + ",".join(WORKLOADS),
             f"faults.samples={SAMPLES}"]

runner = ScenarioRunner(load_preset("fig1", overrides=OVERRIDES))


def run(name):
    spec = load_preset(name, overrides=OVERRIDES)
    cells = [cell for cell in spec.cells() if cell.workload in WORKLOADS]
    return spec, runner.run(cells)


print(f"register-file series (Fig. 1 style), {SAMPLES} faults/series...")
spec, fig1 = run("fig1")
print(chart_from_resultset(fig1, spec.present))

print("\nL1D AVF series (Fig. 3 style)...")
spec, fig3 = run("fig3")
print(chart_from_resultset(fig3, spec.present))

spec, results = run("headline")
headline = comparisons_from_resultset(results, spec.present)
print()
for structure, comparison in headline.items():
    print(render_table(
        ("workload", "GeFIN", "RTL", "delta (pp)", "delta (rel)"),
        comparison.rows(),
        title=f"Cross-level deltas: {structure}",
    ))
    print()

rf = headline["regfile"]
l1d = headline["l1d"]
print("paper headline : RF ~0.7pp (~10%), L1D ~3pp (~20%)")
print(f"this run       : RF {rf.mean_percentile_units:.1f}pp "
      f"({100 * rf.mean_relative:.0f}%), "
      f"L1D {l1d.mean_percentile_units:.1f}pp "
      f"({100 * l1d.mean_relative:.0f}%)")
print("(shape, not absolute match, is the reproduction target; "
      "see EXPERIMENTS.md)")
