"""repro: RT-level vs microarchitecture-level reliability assessment.

A full-system reproduction of Chatzidimitriou et al., "RT Level vs.
Microarchitecture-Level Reliability Assessment: Case Study on ARM
Cortex-A9 CPU" (DSN-W 2017): three CPU models of the same A9-class core
at different abstraction levels, a statistical fault-injection framework
that drives them with an equivalent setup, and the analysis layer that
regenerates every table and figure of the paper's evaluation.

The supported experiment API is the scenario layer (see README.md):

>>> from repro import ScenarioSpec, ScenarioRunner
>>> spec = ScenarioSpec.from_mapping({
...     "targets": {"levels": ["uarch"], "workloads": ["sha"]},
...     "faults": {"samples": 40},
... })
>>> results = ScenarioRunner(spec).run()
>>> 0.0 <= results.where(level="uarch").one().unsafeness <= 1.0
True

The per-level front-ends remain available for one-off campaigns:

>>> from repro.injection import GeFIN
>>> result = GeFIN("sha").campaign("regfile", mode="pinout", samples=40)
>>> 0.0 <= result.unsafeness <= 1.0
True
"""

from repro.injection import ArchEmu, GeFIN, SafetyVerifier
from repro.scenario import (
    ResultSet,
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    load_preset,
    load_scenario,
)

#: Single source of the version: setup.py and ``repro-study --version``
#: both read it from here.
__version__ = "0.2.0"

__all__ = ["ArchEmu", "GeFIN", "ResultSet", "SafetyVerifier",
           "ScenarioError", "ScenarioRunner", "ScenarioSpec",
           "load_preset", "load_scenario", "__version__"]
