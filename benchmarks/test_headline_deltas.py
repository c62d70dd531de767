"""SS V headline: average cross-level deltas.

Paper: "the average difference on the reported estimation is 10% for the
register file (Fig. 1) and 20% for the L1 data cache (Fig. 3), which
translates to 0.7 and 3 percentile points".  The bench reports our
percentile-unit and relative deltas with the same arithmetic.
"""

from conftest import save_artifact

from repro.analysis.report import render_table
from repro.core.figures import comparisons_from_resultset


def test_headline_deltas(benchmark, run_preset):
    # After the fig1 and fig3 benches every cell is a cache recall.
    spec, resultset = benchmark.pedantic(lambda: run_preset("headline"),
                                         rounds=1, iterations=1)
    headline = comparisons_from_resultset(resultset, spec.present)
    blocks = []
    for name, comparison in headline.items():
        blocks.append(render_table(
            ("workload", "GeFIN", "RTL", "delta (pp)", "delta (rel)"),
            comparison.rows(),
            title=f"Cross-level deltas: {name} "
                  f"(paper: RF 0.7pp/10%, L1D 3pp/20%)",
        ))
    text = "\n\n".join(blocks)
    save_artifact("headline_deltas.txt", text)
    print()
    print(text)
    rf = headline["regfile"]
    l1d = headline["l1d"]
    # Shape: both structures' estimates agree across levels to within a
    # modest band (the paper's point is that the cheap model is close).
    assert rf.mean_percentile_units < 25.0
    assert l1d.mean_percentile_units < 30.0
    assert rf.deltas and l1d.deltas
