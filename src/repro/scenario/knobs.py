"""The shared run-header knob table.

``CampaignConfig.describe()`` and
:meth:`repro.scenario.spec.ScenarioSpec.describe` both render their
run headers through this module: one ordered table of knobs, one
renderer per knob, and one :func:`describe_knobs` that each config
calls with whatever subset of knob values it carries, so a new knob
(jobs, store, resume, prune, ...) is taught to every header in one
place.

Adding a knob to a config without teaching this table about it fails
the drift guard in ``tests/test_scenario.py``: every constructor
parameter of ``CampaignConfig`` and ``ScenarioSpec`` must appear either
in :data:`KNOB_ORDER` (possibly via the composite ``parallel`` knob) or
in that config's explicit header-exclusion set.
"""


def _parallel(value):
    """Composite knob: ``(jobs, batch_size, start_method)``.

    Serial runs (``jobs == 1``) print nothing; batch/start only
    qualify a parallel run, exactly as the historical headers did.
    """
    jobs, batch_size, start_method = value
    if jobs == 1:
        return []
    fragments = [f"jobs={jobs or 'auto'}"]
    if batch_size is not None:
        fragments.append(f"batch={batch_size}")
    if start_method is not None:
        fragments.append(f"start={start_method}")
    return fragments


#: Knob name -> fragment renderer.  A renderer returns a list of header
#: fragments (empty = elided at its default).  Order of appearance in a
#: header is fixed by :data:`KNOB_ORDER`, so the two configs can never
#: disagree on it.
_RENDERERS = {
    "window": lambda v: ["window=to-end" if v is None else f"window={v}cyc"],
    "observation": lambda v: [f"op={v}"],
    "distribution": lambda v: [f"dist={v}"],
    "seed": lambda v: [f"seed={v}"],
    "warm_start": lambda v: [] if v else ["cold-start"],
    "prune": lambda v: [] if v == "dead" else [f"prune={v}"],
    "parallel": _parallel,
    "lanes": lambda v: [] if v in (1, None) else [f"lanes={v}"],
    "retries": lambda v: [] if v in (None, 2) else [f"retries={v}"],
    "batch_timeout": lambda v: [] if v is None
    else [f"batch_timeout={v:g}s"],
    "chaos": lambda v: [f"chaos={v}"] if v else [],
    "store": lambda v: [] if v is None else [f"store={v}"],
    "resume": lambda v: ["resume"] if v else [],
}

#: Fixed header order.  Configs pass only the knobs they carry.
KNOB_ORDER = ("window", "observation", "distribution", "seed",
              "warm_start", "prune", "parallel", "lanes", "retries",
              "batch_timeout", "chaos", "store", "resume")

#: ``CampaignConfig.__init__`` parameters that deliberately stay out of
#: run headers: pure accounting/statistics knobs plus cache-residency
#: tuning that never changes a classification.  ``samples`` heads the
#: line instead of appearing as a fragment; jobs/batch_size/start_method
#: fold into the composite ``parallel`` knob.
CAMPAIGN_HEADER_EXCLUDED = frozenset({
    "accelerate", "accelerate_lead", "hang_factor", "error_margin",
    "confidence", "checkpoint_interval", "checkpoint_bound", "early_stop",
})

#: __init__ parameter -> knob-table name where they differ.
PARAM_ALIASES = {
    "prune_mode": "prune",
    "jobs": "parallel",
    "batch_size": "parallel",
    "start_method": "parallel",
    "batch_lanes": "lanes",
}


def describe_knobs(head, values):
    """One run-header line: ``head`` + the rendered knob fragments.

    ``values`` maps knob names (from :data:`KNOB_ORDER`) to the
    config's current values; unknown names raise so a typo cannot
    silently drop a knob from the header.
    """
    unknown = set(values) - set(KNOB_ORDER)
    if unknown:
        raise KeyError(
            f"unknown header knobs {sorted(unknown)}; "
            f"known: {list(KNOB_ORDER)}"
        )
    fragments = [head]
    for name in KNOB_ORDER:
        if name in values:
            fragments.extend(_RENDERERS[name](values[name]))
    return ", ".join(fragments)
