"""Fig. 2: L1D vulnerability (unsafeness) at the core pinout.

The paper's central negative result: the short post-injection window
plus the pinout observation point almost completely fails to capture the
L1D's vulnerability (write-backs leave the core too rarely, too late).
The RTL series uses the inject-near-consumption acceleration, which is
why it reports *more* than GeFIN inside the same window.
"""

from conftest import save_artifact

from repro.analysis.report import campaign_table
from repro.core.figures import chart_from_resultset


def test_fig2_l1d_pinout(benchmark, run_preset):
    spec, resultset = benchmark.pedantic(lambda: run_preset("fig2"),
                                         rounds=1, iterations=1)
    chart = chart_from_resultset(resultset, spec.present)
    results = resultset.series(spec.present["series"])
    flat = [r for series in results.values() for r in series.values()]
    table = campaign_table(flat, title="Fig. 2 campaign details")
    save_artifact("fig2_l1d_pinout.txt", chart + "\n\n" + table)
    print()
    print(chart)

    gefin = [results["GeFIN"][w].unsafeness for w in results["GeFIN"]]
    rtl = [results["RTL"][w].unsafeness for w in results["RTL"]]
    # Shape: the accelerated RTL flow sees at least as much as GeFIN in
    # the same window, on average (SS IV-B).
    assert sum(rtl) >= sum(gefin) - 1e-9
    # Shape: windowed pinout observation misses most of the L1D
    # vulnerability that the AVF mode (Fig. 3) reveals -- the average
    # windowed unsafeness stays low for the cache-resident benchmarks.
    for series in results.values():
        for result in series.values():
            assert 0.0 <= result.unsafeness <= 1.0
