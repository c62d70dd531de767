"""Rendering of the paper's Figures 1-3 and headline comparisons.

Figures render from ``{series: {workload: CampaignResult}}``
dictionaries; :func:`chart_from_resultset` shapes a scenario
:class:`~repro.scenario.resultset.ResultSet` that way through a preset's
``[present]`` block, and :func:`comparisons_from_resultset` builds the
headline preset's cross-level comparisons from the same block.
"""

from repro.analysis.compare import CrossLevelComparison
from repro.analysis.report import bar_chart


def chart_from_resultset(resultset, present):
    """Render a preset figure from its scenario results.

    ``present`` is the scenario's ``[present]`` block (``kind =
    "figure"``): ``title`` plus ``[[series]]`` entries mapping a series
    name to the (level, mode[, structure]) cells that populate it.
    """
    series = resultset.series(present["series"])
    return render_figure(series, present["title"])


def comparisons_from_resultset(resultset, present):
    """The cross-level comparisons of a ``[present]`` block.

    Returns ``{name: CrossLevelComparison}`` in
    ``[[present.comparisons]]`` order.  Each entry pairs every cell its
    ``gefin`` filter selects with the ``rtl``-side cell of the same
    workload, in cell order.
    """
    comparisons = {}
    for comp in present.get("comparisons", []):
        comparison = CrossLevelComparison(comp["structure"],
                                          comp.get("mode", ""))
        rtl = resultset.where(**comp["rtl"])
        for cell, gefin_result in resultset.where(**comp["gefin"]):
            comparison.add_results(
                gefin_result, rtl.where(workload=cell.workload).one())
        comparisons[comp["name"]] = comparison
    return comparisons


def figure_series(series_results):
    """Convert ``{series: {workload: CampaignResult}}`` to chart input."""
    labels = list(next(iter(series_results.values())).keys())
    series = {
        name: [results[label].unsafeness for label in labels]
        for name, results in series_results.items()
    }
    return series, labels


def render_figure(series_results, title):
    series, labels = figure_series(series_results)
    return bar_chart(series, labels, title=title)
