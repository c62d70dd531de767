"""Declarative scenario API: spec-driven campaigns, sweep matrices and
a queryable :class:`ResultSet`.

This is the supported experiment surface (re-exported from
:mod:`repro`): declare *what* to run in a :class:`ScenarioSpec` (TOML/
JSON file or Python), let :class:`ScenarioRunner` schedule the expanded
grid through the executor/checkpoint-cache/prune machinery, and query
the returned :class:`ResultSet`::

    from repro import ScenarioRunner, load_scenario

    spec = load_scenario("scenario.toml")
    results = ScenarioRunner(spec).run()
    rtl = results.where(level="rtl", prune="off")
    print(results.table())

The paper's figures are built-in presets (:func:`load_preset`), run
from the command line as ``repro-study run fig1`` (or its argv alias
``repro-study fig1``).
"""

from repro.scenario.presets import load_preset, preset_names, preset_path
from repro.scenario.resultset import ResultSet
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import (
    CellSpec,
    ScenarioError,
    ScenarioSpec,
    apply_overrides,
    load_scenario,
)

__all__ = [
    "CellSpec",
    "ResultSet",
    "ScenarioError",
    "ScenarioRunner",
    "ScenarioSpec",
    "apply_overrides",
    "load_preset",
    "load_scenario",
    "preset_names",
    "preset_path",
]
