"""Order statistics the benchmark reports."""

import math
import statistics


def summarize(values):
    """``{"value": median, "q1", "q3", "n", "runs"}`` of a sample; the
    quartiles are ``statistics.quantiles(values, n=4)``, as the
    acceptance check computes them."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "runs": values}


def spread(summary):
    """Interquartile distance as a share of the median."""
    if not summary["value"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["value"])


def tail_percentile(values, beyond=10):
    """``(percentile, value)``: the highest whole percentile (>= 50)
    with at least ``beyond`` samples above it, by nearest rank.  With
    too few samples for any tail the median stands in, reported as
    percentile 50; an empty sample gives ``(0, 0.0)``."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0, 0.0
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= beyond:
            return pct, ordered[rank - 1]
    return 50, ordered[math.ceil(n / 2) - 1]
