"""Fig. 1: register-file vulnerability (unsafeness), pinout OP.

Three series per benchmark, as in the paper: GeFIN (windowed), RTL
(windowed) and GeFIN-no-timer (run to end).  Shape targets: small
absolute unsafeness (the paper's Fig. 1 peaks below 20%), small
cross-level deltas on most benchmarks, no-timer >= windowed.
"""

from conftest import save_artifact

from repro.analysis.report import campaign_table
from repro.core.figures import chart_from_resultset


def test_fig1_regfile(benchmark, run_preset):
    spec, resultset = benchmark.pedantic(lambda: run_preset("fig1"),
                                         rounds=1, iterations=1)
    chart = chart_from_resultset(resultset, spec.present)
    results = resultset.series(spec.present["series"])
    flat = [r for series in results.values() for r in series.values()]
    table = campaign_table(flat, title="Fig. 1 campaign details")
    save_artifact("fig1_regfile.txt", chart + "\n\n" + table)
    print()
    print(chart)
    # Shape: vulnerabilities are probabilities, and the run-to-end series
    # can only see more than the windowed series (same seed and faults).
    for series in results.values():
        for result in series.values():
            assert 0.0 <= result.unsafeness <= 1.0
    for workload in results["GeFIN"]:
        windowed = results["GeFIN"][workload].unsafeness
        to_end = results["GeFIN-no timer"][workload].unsafeness
        assert to_end >= windowed - 1e-9, workload
