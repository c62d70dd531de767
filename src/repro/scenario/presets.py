"""Built-in scenario presets.

Each of the paper's artifacts is a committed scenario file under
``src/repro/scenario/presets/``, run through the standard
:class:`~repro.scenario.runner.ScenarioRunner` by ``repro-study run
<name>``.  The CLI subcommands ``fig1``..``fig3``, ``headline`` and
``table2`` are argv aliases of ``run <name>``, so ``repro-study fig1``
and ``repro-study run fig1`` are the same command.
"""

import pathlib

from repro.scenario.spec import ScenarioError, load_scenario

PRESET_DIR = pathlib.Path(__file__).resolve().parent / "presets"


def preset_names():
    """Available preset names, sorted."""
    return tuple(sorted(p.stem for p in PRESET_DIR.glob("*.toml")))


def preset_path(name):
    """The file backing preset ``name`` (raises :class:`ScenarioError`
    for unknown names)."""
    path = PRESET_DIR / f"{name}.toml"
    if not path.exists():
        raise ScenarioError(
            f"preset {name!r}", "unknown preset",
            hint=f"available: {', '.join(preset_names())}")
    return path


def load_preset(name, overrides=()):
    """Load and validate a built-in preset scenario."""
    return load_scenario(preset_path(name), overrides=overrides)
