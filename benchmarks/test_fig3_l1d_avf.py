"""Fig. 3: L1D AVF with the software observation point.

Run-to-end campaigns comparing program output -- the paper's AVF
extension of the RTL flow, applied (as in the paper) only to the shorter
benchmarks, because RTL run-to-end campaigns are the most expensive
experiments in the study.
"""

from conftest import save_artifact

from repro.analysis.report import campaign_table
from repro.core.figures import chart_from_resultset


def test_fig3_l1d_avf(benchmark, run_preset):
    spec, resultset = benchmark.pedantic(lambda: run_preset("fig3"),
                                         rounds=1, iterations=1)
    chart = chart_from_resultset(resultset, spec.present)
    results = resultset.series(spec.present["series"])
    flat = [r for series in results.values() for r in series.values()]
    table = campaign_table(flat, title="Fig. 3 campaign details")
    save_artifact("fig3_l1d_avf.txt", chart + "\n\n" + table)
    print()
    print(chart)
    # Shape: the SOP reveals real L1D vulnerability that Fig. 2's pinout
    # window misses -- at least one benchmark shows nonzero AVF at both
    # levels.
    nonzero_levels = sum(
        1 for series in results.values()
        if any(r.unsafeness > 0 for r in series.values())
    )
    assert nonzero_levels == len(results)
