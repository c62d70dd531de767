"""Spec -> campaign pin: what every preset and bench workload hands to
the campaign engine.

For every built-in preset, every ``bench/workloads/*.toml`` scenario
and one ``run`` flag combination, the fixture records the spec's run
header, each cell's label, store name and identity, and -- for each
cell with a fault budget -- the :class:`CampaignConfig` that
``ScenarioRunner.run_cell`` builds (``Campaign.run`` is replaced, so no
campaign executes).  Any refactor of the knob plumbing (spec parsing,
sweep axes, cell expansion, CLI flags, the campaign hand-off) must
leave this file passing unchanged.  Regenerate the fixture -- only for
an intended behaviour change -- with::

    PYTHONPATH=src python tests/test_knob_table.py
"""

import json
import pathlib

import pytest

from repro import cli
from repro.injection.campaign import Campaign
from repro.scenario.presets import preset_names
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import load_scenario

FIXTURE = pathlib.Path(__file__).with_name("knob_table.json")
BENCH_WORKLOADS = pathlib.Path(__file__).parents[1] / "bench" / "workloads"
#: One combination of every value-taking ``run`` flag, applied to a
#: single-level scenario.
FLAG_ARGV = ("--jobs", "2", "--lanes", "8", "--prune", "static",
             "--retries", "3", "--store", "x", "--resume")
FLAG_CASES = {
    f"flags:lanes-regfile:{level}": (
        str(BENCH_WORKLOADS / "lanes-regfile.toml"),
        FLAG_ARGV + ("--set", f"targets.levels={level}"))
    for level in ("arch", "rtl")
}


def _cases():
    cases = {f"preset:{name}": (name, ()) for name in preset_names()}
    for path in sorted(BENCH_WORKLOADS.glob("*.toml")):
        cases[f"bench:{path.stem}"] = (str(path), ())
    cases.update(FLAG_CASES)
    return cases


CASES = _cases()


def _load(scenario, argv, monkeypatch):
    """Parse ``repro-study run SCENARIO ARGV`` exactly as the CLI does
    and return the validated spec."""
    captured = []
    monkeypatch.setattr(cli, "_cmd_run", captured.append)
    assert cli.main(["run", scenario, *argv]) == 0
    (args,) = captured
    return load_scenario(cli._resolve_scenario(args.scenario),
                         overrides=cli._run_flag_overrides(args)
                         + (args.set or []))


def _plain(value):
    return json.loads(json.dumps(value))


def snapshot(scenario, argv, monkeypatch):
    monkeypatch.delenv("REPRO_SFI_SAMPLES", raising=False)
    spec = _load(scenario, argv, monkeypatch)
    configs = []
    monkeypatch.setattr(Campaign, "run",
                        lambda self, **_: configs.append(self.config))
    runner = ScenarioRunner(spec)
    cells = []
    for cell in spec.cells():
        entry = {"label": cell.label(), "store_name": cell.store_name(),
                 "identity": _plain(cell.identity())}
        if cell.samples > 0:
            runner.run_cell(cell)
            config = configs.pop()
            entry["config"] = _plain({
                "identity": config.identity(),
                "describe": config.describe(),
                "jobs": config.jobs,
                "batch_size": config.batch_size,
                "batch_lanes": config.batch_lanes,
                "retries": config.retries,
                "batch_timeout": config.batch_timeout,
            })
        cells.append(entry)
    return {"describe": spec.describe(), "cells": cells}


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(fixture):
    assert set(fixture) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_spec_to_campaign_handoff(fixture, case, monkeypatch):
    assert snapshot(*CASES[case], monkeypatch) == fixture[case]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        data = {case: snapshot(*CASES[case], patch)
                for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
