"""The declarative scenario layer: schema validation, sweep expansion,
ResultSet queries, golden sharing, preset equivalence and the CLI."""

import argparse
import dataclasses
import inspect

import pytest

from repro.injection import GeFIN, SafetyVerifier
from repro.scenario import (
    ScenarioError,
    ScenarioRunner,
    ScenarioSpec,
    load_preset,
    preset_names,
)
from repro.scenario.knobs import KNOB, KNOBS, RUN_FLAGS
from repro.scenario.spec import apply_overrides


def make_spec(**sections):
    base = {
        "targets": {"levels": ["arch"], "workloads": ["stringsearch"],
                    "structures": ["regfile"], "modes": ["pinout"]},
        "faults": {"samples": 4},
    }
    base.update(sections)
    return ScenarioSpec.from_mapping(base)


# ----------------------------------------------------------------------
# schema validation: every error names the offending field
# ----------------------------------------------------------------------

def test_unknown_section_rejected():
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping({"fautls": {}})
    assert err.value.field == "scenario.fautls"
    assert "faults" in str(err.value)  # typo suggestion


def test_unknown_key_suggests_correction():
    with pytest.raises(ScenarioError) as err:
        make_spec(faults={"sampels": 4})
    assert err.value.field == "faults.sampels"
    assert "samples" in str(err.value)


def test_bad_level_name():
    with pytest.raises(ScenarioError) as err:
        make_spec(targets={"levels": ["rlt"]})
    assert err.value.field == "targets.levels" \
        or "rlt" in str(err.value)
    assert "rtl" in str(err.value)


def test_bad_workload_name():
    with pytest.raises(ScenarioError) as err:
        make_spec(targets={"levels": ["arch"], "workloads": ["shaa"]})
    assert "sha" in str(err.value)


def test_mode_invalid_for_level():
    with pytest.raises(ScenarioError) as err:
        make_spec(targets={"levels": ["rtl"],
                           "workloads": ["stringsearch"],
                           "modes": ["avf"]})
    assert "avf" in str(err.value) and "rtl" in str(err.value)
    assert "sop" in str(err.value)  # the hint lists valid modes


def test_structure_invalid_for_level():
    with pytest.raises(ScenarioError) as err:
        make_spec(targets={"levels": ["arch"],
                           "workloads": ["stringsearch"],
                           "structures": ["l1d.data"]})
    assert "l1d.data" in str(err.value) and "arch" in str(err.value)


def test_conflicting_sweep_axis_scalar():
    with pytest.raises(ScenarioError) as err:
        make_spec(execution={"prune": "off"},
                  sweep={"prune": ["off", "dead"]})
    assert err.value.field == "sweep.prune"
    assert "execution.prune" in str(err.value)


def test_conflicting_sweep_axis_target():
    with pytest.raises(ScenarioError) as err:
        make_spec(sweep={"levels": ["arch", "uarch"]})
    assert err.value.field == "sweep.level"
    assert "targets.levels" in str(err.value)


def test_bad_window_and_distribution_values():
    with pytest.raises(ScenarioError) as err:
        make_spec(faults={"window": "sometimes"})
    assert err.value.field == "faults.window"
    with pytest.raises(ScenarioError) as err:
        make_spec(faults={"distribution": "gaussian"})
    assert err.value.field == "faults.distribution"
    assert "normal" in str(err.value)


def test_resume_requires_store():
    with pytest.raises(ScenarioError) as err:
        make_spec(execution={"resume": True})
    assert err.value.field == "execution.resume"


def test_present_block_must_be_renderable():
    base = {"targets": {"levels": ["arch"],
                        "workloads": ["stringsearch"],
                        "structures": ["regfile"], "modes": ["pinout"]},
            "faults": {"samples": 2}}
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping({
            **base, "present": {"kind": "figure", "title": "F"}})
    assert err.value.field == "present.series"
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping({**base, "present": {
            "kind": "figure", "title": "F",
            "series": [{"name": "S", "level": "rtl",
                        "mode": "pinout"}]}})
    assert err.value.field == "present.series[0]"
    assert "matches no grid cell" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping({
            **base, "sweep": {"prune": ["off", "dead"]},
            "present": {"kind": "figure", "title": "F", "series": [
                {"name": "S", "level": "arch", "mode": "pinout"}]}})
    assert "swept grid" in str(err.value)
    # typo'd keys inside comparison filter tables fail up front
    headline_base = {
        "targets": {"levels": ["uarch", "rtl"],
                    "workloads": ["stringsearch"],
                    "structures": ["regfile"], "modes": ["pinout"]},
        "faults": {"samples": 2}}
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping({**headline_base, "present": {
            "kind": "headline",
            "series": [{"name": "S", "level": "uarch",
                        "mode": "pinout"}],
            "comparisons": [{
                "name": "rf", "structure": "regfile",
                "gefin": {"level": "uarch", "mod": "pinout"},
                "rtl": {"level": "rtl", "mode": "pinout"}}]}})
    assert err.value.field == "present.comparisons[0].gefin.mod"
    # figure series must chart one workload set
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping({
            "targets": {"structures": ["regfile"], "modes": ["pinout"]},
            "grid": [
                {"levels": ["uarch"], "workloads": ["sha", "fft"]},
                {"levels": ["rtl"], "workloads": ["sha"]},
            ],
            "faults": {"samples": 2},
            "present": {"kind": "figure", "title": "F", "series": [
                {"name": "A", "level": "uarch", "mode": "pinout"},
                {"name": "B", "level": "rtl", "mode": "pinout"}]}})
    assert "workload set" in str(err.value)


# ----------------------------------------------------------------------
# --set overrides
# ----------------------------------------------------------------------

def test_set_override_applies_scalars_and_lists():
    mapping = {"targets": {"levels": ["arch"],
                           "workloads": ["stringsearch"]}}
    apply_overrides(mapping, ["faults.samples=10",
                              "sweep.prune=off,dead",
                              "execution.store=runs/x"])
    spec = ScenarioSpec.from_mapping(mapping)
    assert spec.samples == 10
    assert dict(spec.sweep)["prune"] == ("off", "dead")
    assert spec.store == "runs/x"


def test_set_override_bad_value_names_field():
    mapping = {"targets": {"levels": ["arch"],
                           "workloads": ["stringsearch"]}}
    apply_overrides(mapping, ["faults.samples=lots"])
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping(mapping)
    assert err.value.field == "faults.samples"


def test_set_override_malformed_pair():
    with pytest.raises(ScenarioError) as err:
        apply_overrides({}, ["faults.samples"])
    assert "--set" in err.value.field
    with pytest.raises(ScenarioError) as err:
        apply_overrides({}, ["samples=4"])
    assert "samples" in err.value.field


def test_store_paths_are_never_toml_coerced():
    # a directory literally named "2024" (or containing a comma) must
    # survive the CLI flag -> override -> spec round trip verbatim
    from repro.cli import _run_flag_overrides

    class Args:
        jobs, prune, retries, resume = 2, "dead", None, False
        lanes = store_format = None
        store = "2024"

    mapping = {"targets": {"levels": ["arch"],
                           "workloads": ["stringsearch"]}}
    apply_overrides(mapping, _run_flag_overrides(Args()))
    spec = ScenarioSpec.from_mapping(mapping)
    assert spec.store == "2024"


#: Each run flag's knob -> (a valid value, an invalid one); ``None``
#: marks a switch (no value) or a flag without an invalid value.
_FLAG_VALUES = {
    "jobs": ("auto", "many"),
    "lanes": ("4", "0"),
    "prune": ("static", "sometimes"),
    "retries": ("3", "0"),
    "store": ("runs/y", None),
    "store_format": ("jsonl", "xml"),
    "resume": (None, None),
}


def _run_spec(tmp_path, *argv):
    """The spec ``repro-study run BASE ARGV`` would run."""
    from repro.cli import _load_run_spec, build_parser

    base = tmp_path / "base.toml"
    base.write_text('[targets]\nlevels = ["arch"]\n'
                    'workloads = ["stringsearch"]\n'
                    '[faults]\nsamples = 2\n'
                    '[execution]\nstore = "runs/x"\n')
    return _load_run_spec(build_parser().parse_args(
        ["run", str(base), *argv]))


def _knob_values(spec):
    return {knob.key: getattr(spec, knob.key) for knob in KNOBS}


@pytest.mark.parametrize("key", [knob.key for knob in RUN_FLAGS])
def test_run_flag_is_an_exact_set_alias(tmp_path, key):
    knob = KNOB[key]
    good, bad = _FLAG_VALUES[key]
    flag = [knob.option] if good is None else [knob.option, good]
    by_flag = _run_spec(tmp_path, *flag)
    by_set = _run_spec(tmp_path, "--set",
                       f"{knob.field}={'true' if good is None else good}")
    assert _knob_values(by_flag) == _knob_values(by_set)
    assert by_flag.cells() == by_set.cells()
    assert by_flag.describe() == by_set.describe()
    assert _knob_values(by_flag) != _knob_values(_run_spec(tmp_path))
    if bad is not None:
        for argv in ([knob.option, bad], ["--set", f"{knob.field}={bad}"]):
            with pytest.raises(ScenarioError) as err:
                _run_spec(tmp_path, *argv)
            assert err.value.field == knob.field


@pytest.mark.parametrize("text", ["abc", "-3"])
def test_samples_env_is_checked_like_faults_samples(monkeypatch, text):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SFI_SAMPLES", text)
    with pytest.raises(ScenarioError) as err:
        make_spec(faults={}).cells()
    assert err.value.field == "REPRO_SFI_SAMPLES"
    # The CLI reports it as a one-line spec error, before any run.
    with pytest.raises(SystemExit) as exit_:
        main(["run", "fig1"])
    assert str(exit_.value.code).startswith(
        "repro-study: [REPRO_SFI_SAMPLES]")


def test_samples_env_sets_the_default_budget(monkeypatch):
    monkeypatch.setenv("REPRO_SFI_SAMPLES", "7")
    assert {cell.samples for cell in make_spec(faults={}).cells()} == {7}


def test_single_value_sweep_override():
    mapping = {"targets": {"levels": ["arch"],
                           "workloads": ["stringsearch"]}}
    apply_overrides(mapping, ["sweep.prune=off", "faults.samples=2"])
    spec = ScenarioSpec.from_mapping(mapping)
    assert dict(spec.sweep)["prune"] == ("off",)
    assert [c.prune for c in spec.cells()] == ["off"]


def test_set_override_unknown_key_is_actionable():
    mapping = {"targets": {"levels": ["arch"],
                           "workloads": ["stringsearch"]}}
    apply_overrides(mapping, ["faults.smaples=10"])
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_mapping(mapping)
    assert err.value.field == "faults.smaples"


# ----------------------------------------------------------------------
# grid expansion
# ----------------------------------------------------------------------

def test_sweep_expansion_order_and_coordinates():
    spec = make_spec(
        targets={"levels": ["arch", "uarch"],
                 "workloads": ["stringsearch"]},
        sweep={"prune": ["off", "dead"]},
    )
    cells = spec.cells()
    assert [(c.level, c.prune) for c in cells] == [
        ("arch", "off"), ("uarch", "off"),
        ("arch", "dead"), ("uarch", "dead"),
    ]
    assert [c.index for c in cells] == [0, 1, 2, 3]
    assert cells[0].axes == (("prune", "off"),)
    assert cells[0].coordinate("prune") == "off"
    assert cells[0].label().endswith("[prune=off]")
    # scalar sweep coordinates reach the store directory name; the
    # sweep-free part keeps the historical naming
    assert cells[0].store_name() == \
        "arch-stringsearch-regfile-pinout-prune=off"


def test_grid_blocks_union_and_inheritance():
    spec = ScenarioSpec.from_mapping({
        "targets": {"workloads": ["stringsearch"],
                    "structures": ["regfile"]},
        "grid": [
            {"levels": ["uarch"], "modes": ["pinout", "pinout-notimer"]},
            {"levels": ["rtl"], "modes": ["pinout"]},
        ],
        "faults": {"samples": 2},
    })
    combos = [(c.level, c.mode) for c in spec.cells()]
    assert combos == [("uarch", "pinout"), ("uarch", "pinout-notimer"),
                      ("rtl", "pinout")]


def test_seed_policy_shared_vs_per_cell():
    shared = make_spec(targets={"levels": ["arch", "uarch"],
                                "workloads": ["stringsearch"]})
    assert {c.seed for c in shared.cells()} == {2017}
    derived = make_spec(
        targets={"levels": ["arch", "uarch"],
                 "workloads": ["stringsearch"]},
        faults={"samples": 4, "seed_policy": "per-cell"},
    )
    seeds = [c.seed for c in derived.cells()]
    assert len(set(seeds)) == 2  # distinct per cell...
    assert seeds == [c.seed for c in derived.cells()]  # ...deterministic
    # execution-only sweep axes never perturb a per-cell seed: the
    # prune=off/dead cells of one target must sample identical faults
    swept = make_spec(
        targets={"levels": ["arch"], "workloads": ["stringsearch"]},
        faults={"samples": 4, "seed_policy": "per-cell"},
        sweep={"prune": ["off", "dead"]},
    )
    by_prune = {c.prune: c.seed for c in swept.cells()}
    assert by_prune["off"] == by_prune["dead"]


def test_jobs_rejects_booleans():
    with pytest.raises(ScenarioError) as err:
        make_spec(execution={"jobs": False})
    assert err.value.field == "execution.jobs"


def test_store_format_validated():
    spec = make_spec(execution={"store": "out/stores",
                                "store_format": "jsonl"})
    assert spec.store_format == "jsonl"
    with pytest.raises(ScenarioError) as err:
        make_spec(execution={"store": "out/stores",
                             "store_format": "msgpack"})
    assert err.value.field == "execution.store_format"
    with pytest.raises(ScenarioError) as err:
        make_spec(execution={"store_format": "binary"})
    assert err.value.field == "execution.store_format"


def test_zero_cell_grid_is_an_error():
    empty = ScenarioSpec(name="empty", blocks=(), workloads=("sha",))
    empty.blocks = (dataclasses.replace(empty.blocks[0], levels=()),)
    with pytest.raises(ScenarioError):
        ScenarioRunner(empty).run()


# ----------------------------------------------------------------------
# runner + ResultSet (arch tier: fast)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_results():
    spec = ScenarioSpec.from_mapping({
        "targets": {"levels": ["arch"], "workloads": ["stringsearch"],
                    "structures": ["regfile"], "modes": ["pinout"]},
        "faults": {"samples": 6},
        "sweep": {"prune": ["off", "dead"]},
    })
    runner = ScenarioRunner(spec)
    return runner, runner.run()


def test_resultset_where_one_group_by(sweep_results):
    _, results = sweep_results
    assert len(results) == 2
    off = results.where(prune="off")
    assert len(off) == 1 and off.one().n == 6
    assert results.where(level="arch", prune="dead").one().n == 6
    with pytest.raises(LookupError):
        results.one()
    with pytest.raises(KeyError):
        results.where(flavour="spicy")
    groups = results.group_by("prune")
    assert list(groups) == [("off",), ("dead",)]
    assert all(len(g) == 1 for g in groups.values())


def test_prune_sweep_classifications_agree(sweep_results):
    _, results = sweep_results
    off = results.where(prune="off").one()
    dead = results.where(prune="dead").one()
    assert [r.fclass for r in off.records] == \
        [r.fclass for r in dead.records]
    assert dead.pruned_count > 0  # the sweep actually changed the knob


def test_resultset_export_surfaces(sweep_results):
    _, results = sweep_results
    csv_text = results.to_csv()
    header, first = csv_text.splitlines()[:2]
    assert header.startswith("cell,mode,sweep,")
    assert first.startswith(
        "arch/stringsearch/regfile/pinout[prune=off],pinout,prune=off,")
    table = results.table(title="T")
    assert "T" in table and "prune=dead" in table
    assert "stringsearch" in results.campaign_table()
    assert "speedup" in results.speedup_table()
    assert 0.0 <= results.mean_unsafeness() <= 1.0
    assert results.total_simulated() >= 6  # prune=off simulated all


def test_series_rejects_ambiguous_cells(sweep_results):
    """Regression: an unpinned sweep axis used to chart whichever cell
    matched first (``setdefault``), silently dropping the rest."""
    _, results = sweep_results
    definition = [{"name": "S", "level": "arch", "mode": "pinout"}]
    with pytest.raises(ScenarioError) as err:
        results.series(definition)
    assert err.value.field == "present.series"
    # The error names every colliding cell, so the fix is findable.
    assert "prune=off" in str(err.value)
    assert "prune=dead" in str(err.value)
    # Narrowing the set (or pinning the axis) resolves it.
    shaped = results.where(prune="off").series(definition)
    assert shaped["S"]["stringsearch"].n == 6


def test_golden_pool_drained_after_run(sweep_results):
    runner, results = sweep_results
    # run() evicts each (level, workload)'s pooled goldens as soon as
    # its last cell completes, so peak memory never scales with grid
    # size and nothing lingers afterwards.
    assert len(runner._golden_pool) == 0


def test_golden_sharing_is_bit_identical(monkeypatch):
    # Two modes sharing one golden (pinout / pinout-notimer at arch)
    # against fresh unshared campaigns.
    from repro.injection.campaign import Campaign

    captures = []
    real_golden_phase = Campaign._golden_phase
    monkeypatch.setattr(
        Campaign, "_golden_phase",
        lambda self, sim, result: captures.append(self.workload)
        or real_golden_phase(self, sim, result))
    spec = ScenarioSpec.from_mapping({
        "targets": {"levels": ["arch"], "workloads": ["stringsearch"],
                    "structures": ["regfile"],
                    "modes": ["pinout", "pinout-notimer"]},
        "faults": {"samples": 6},
    })
    shared = ScenarioRunner(spec).run()
    assert captures == ["stringsearch"]  # one capture for two cells
    # only the capturing cell pays golden time; the adopter's serial
    # estimate covers just its own faulty runs (speedup ~1 at jobs=1)
    paid = [r.golden_seconds > 0 for r in shared.results]
    assert sorted(paid) == [False, True]
    from repro.injection import ArchEmu

    front = ArchEmu("stringsearch")
    for mode in ("pinout", "pinout-notimer"):
        alone = front.campaign("regfile", mode=mode, samples=6)
        pooled = shared.where(mode=mode).one()
        assert [(r.fault.bit, r.fault.cycle, r.fclass)
                for r in alone.records] == \
            [(r.fault.bit, r.fault.cycle, r.fclass)
             for r in pooled.records]


def test_golden_only_cells_measure_throughput():
    spec = ScenarioSpec.from_mapping({
        "targets": {"levels": ["arch"], "workloads": ["stringsearch"]},
        "faults": {"samples": 0},
    })
    results = ScenarioRunner(spec).run()
    result = results.one()
    assert result.n == 0
    assert result.golden_cycles > 0 and result.golden_seconds > 0
    # zero-population results render everywhere (summary guards the
    # Leveugle sample-size math)
    assert result.summary()["recommended_samples"] == 0
    assert "stringsearch" in results.table()
    assert results.to_csv().count("\n") == 2


def test_where_rejects_method_names():
    spec = make_spec()
    cell = spec.cells()[0]
    with pytest.raises(KeyError):
        cell.coordinate("label")
    assert cell.coordinate("level") == "arch"


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

def test_presets_all_load_and_validate():
    names = preset_names()
    assert {"fig1", "fig2", "fig3", "headline", "table2",
            "sweep-smoke"} <= set(names)
    for name in names:
        spec = load_preset(name)
        assert spec.cells() or spec.present.get("kind") == "table2"


def test_fig1_preset_matches_legacy_grid():
    spec = load_preset("fig1")
    combos = {(c.level, c.structure, c.mode) for c in spec.cells()}
    assert combos == {("uarch", "regfile", "pinout"),
                      ("uarch", "regfile", "pinout-notimer"),
                      ("rtl", "regfile", "pinout")}
    assert [s["name"] for s in spec.present["series"]] == \
        ["GeFIN", "RTL", "GeFIN-no timer"]


def test_fig3_preset_pins_the_paper_workloads():
    spec = load_preset("fig3", overrides=["targets.workloads=sha"])
    # the blocks pin the paper's short workloads, so the override
    # cannot reach them
    paper = ("caes", "stringsearch", "susan_corners", "susan_edges",
             "susan_smooth")
    for level in ("uarch", "rtl"):
        assert tuple(c.workload for c in spec.cells()
                     if c.level == level) == paper


@pytest.mark.parametrize("jobs", [1, 2])
def test_fig1_preset_equivalent_to_legacy_path(jobs, capsys):
    """The acceptance pin: the preset route produces per-fault classes
    and chart text bit-identical to the pre-refactor code path (the
    direct front-end campaigns every figure was built from before the
    scenario layer)."""
    from repro.cli import main
    from repro.core.figures import render_figure

    samples, seed = 5, 2017
    legacy = {"GeFIN": {}, "RTL": {}, "GeFIN-no timer": {}}
    legacy_series = {
        "GeFIN": (GeFIN, "pinout"),
        "RTL": (SafetyVerifier, "pinout"),
        "GeFIN-no timer": (GeFIN, "pinout-notimer"),
    }
    for name, (frontend, mode) in legacy_series.items():
        legacy[name]["stringsearch"] = frontend("stringsearch").campaign(
            "regfile", mode=mode, samples=samples, seed=seed, jobs=jobs)
    assert main(["fig1", "--set", "targets.workloads=stringsearch",
                 "--set", f"faults.samples={samples}",
                 "--jobs", str(jobs)]) == 0
    out = capsys.readouterr().out
    title = load_preset("fig1").present["title"]
    assert out.rstrip("\n") == render_figure(legacy, title).rstrip("\n")

    spec = load_preset("fig1", overrides=[
        "targets.workloads=stringsearch", f"faults.samples={samples}",
        f"execution.jobs={jobs}"])
    results = ScenarioRunner(spec).run()
    for name, (frontend, mode) in legacy_series.items():
        level = "rtl" if frontend is SafetyVerifier else "uarch"
        preset_result = results.where(level=level, mode=mode).one()
        expected = legacy[name]["stringsearch"]
        assert [(r.fault.structure, r.fault.bit, r.fault.original_cycle,
                 r.fclass) for r in preset_result.records] == \
            [(r.fault.structure, r.fault.bit, r.fault.original_cycle,
              r.fclass) for r in expected.records]


# ----------------------------------------------------------------------
# drift guard: one knob table (repro.scenario.knobs)
# ----------------------------------------------------------------------

def _spec_reference_fields():
    """``section.key`` of every knob row in DESIGN.md's spec reference
    table (a row with an empty section column continues the previous
    section)."""
    import pathlib
    import re

    text = (pathlib.Path(__file__).parents[1] / "DESIGN.md").read_text()
    table = text.split("### Spec reference", 1)[1].split("\n\n", 2)[1]
    fields, section = set(), None
    for row in table.splitlines()[2:]:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        section = re.findall(r"\[(\w+)\]", cells[0])[0] if cells[0] \
            else section
        fields.update(f"{section}.{key}"
                      for key in re.findall(r"`(\w+)`", cells[1]))
    return fields


def test_knob_table_drift_guard():
    from repro.cli import build_parser
    from repro.injection.campaign import CampaignConfig
    from repro.scenario.knobs import CAMPAIGN_ONLY
    from repro.sim.frontend import Frontend

    config = set(inspect.signature(CampaignConfig.__init__).parameters)
    config.discard("self")
    store = {"store", "resume", "store_format"}
    assert store <= set(inspect.signature(Frontend.campaign).parameters)
    fed = {knob.param for knob in KNOBS if knob.param}
    # Every row feeds a real CampaignConfig parameter (or the
    # campaign's store keywords) ...
    assert fed <= config | store, sorted(fed - config - store)
    # ... and every CampaignConfig parameter is fed by a row or is
    # deliberately campaign-only.
    assert config - fed == CAMPAIGN_ONLY, sorted(config - fed
                                                 ^ CAMPAIGN_ONLY)
    # The run flags are exactly the rows that carry one.
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {option for action in sub.choices["run"]._actions
               for option in action.option_strings}
    assert options - {"-h", "--help", "--set", "--csv"} == \
        {knob.option for knob in KNOBS if knob.flag}
    # DESIGN.md documents every knob.
    missing = {knob.field for knob in KNOBS} - _spec_reference_fields()
    assert not missing, f"absent from DESIGN.md's spec reference: " \
                        f"{sorted(missing)}"


def test_describe_headers_agree_on_shared_knobs():
    from repro.injection.campaign import CampaignConfig

    spec = make_spec(execution={
        "jobs": 4, "batch_size": 2, "prune": "static",
        "store": "runs/x", "resume": True}).describe()
    campaign = CampaignConfig(samples=5, jobs=4, batch_size=2,
                              prune_mode="static").describe()
    for fragment in ("jobs=4", "batch=2", "prune=static"):
        assert fragment in spec and fragment in campaign
    assert "store=runs/x" in spec and "resume" in spec
    assert "cold-start" in CampaignConfig(warm_start=False).describe()


def test_scenario_describe_uses_the_same_table():
    spec = make_spec(execution={"jobs": 4, "prune": "static"})
    text = spec.describe()
    assert "jobs=4" in text and "prune=static" in text
    assert "1 cells x 4 faults" in text


def test_lanes_knob_in_every_describe_header():
    """``lanes`` renders through the one shared table in both config
    surfaces (and elides at its default of 1)."""
    from repro.injection.campaign import CampaignConfig

    assert "lanes=8" in CampaignConfig(batch_lanes=8).describe()
    assert "lanes=8" in make_spec(execution={"lanes": 8}).describe()
    assert "lanes" not in CampaignConfig().describe()
    assert "lanes" not in make_spec().describe()


def test_retries_and_batch_timeout_validated():
    """[execution] retries/batch_timeout: parsed, validated (positive),
    threaded into every cell and rendered in the header at non-default
    values."""
    spec = make_spec(execution={"retries": 5, "batch_timeout": 2.5})
    assert spec.retries == 5 and spec.batch_timeout == 2.5
    assert all(c.retries == 5 and c.batch_timeout == 2.5
               for c in spec.cells())
    assert "retries=5" in spec.describe()
    assert "batch_timeout=2.5s" in spec.describe()
    # Defaults elide from the header.
    plain = make_spec()
    assert all(c.retries == 2 and c.batch_timeout is None
               for c in plain.cells())
    assert "retries" not in plain.describe()
    assert "batch_timeout" not in plain.describe()
    for bad in ({"retries": 0}, {"retries": -1}, {"retries": 1.5},
                {"retries": False}):
        with pytest.raises(ScenarioError) as err:
            make_spec(execution=bad)
        assert err.value.field == "execution.retries"
    for bad in ({"batch_timeout": 0}, {"batch_timeout": -2},
                {"batch_timeout": "5s"}, {"batch_timeout": True}):
        with pytest.raises(ScenarioError) as err:
            make_spec(execution=bad)
        assert err.value.field == "execution.batch_timeout"


def test_lanes_accepted_on_every_level():
    """The lane walk serves every tier: ``lanes = 8`` validates on each
    level, alone and together, and still reaches the campaign config."""
    for levels in (["arch"], ["uarch"], ["rtl"], ["arch", "uarch", "rtl"]):
        spec = make_spec(targets={"levels": levels,
                                  "workloads": ["stringsearch"]},
                         execution={"lanes": 8})
        assert {cell.lanes for cell in spec.cells()} == {8}


# ----------------------------------------------------------------------
# workload descriptions (repro-study list)
# ----------------------------------------------------------------------

def test_workload_descriptions_cover_registry():
    from repro.workloads.registry import (
        WORKLOAD_DESCRIPTIONS,
        WORKLOAD_NAMES,
    )

    assert tuple(WORKLOAD_DESCRIPTIONS) == WORKLOAD_NAMES
    assert all(WORKLOAD_DESCRIPTIONS.values())


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_version(capsys):
    from repro import __version__
    from repro.cli import main

    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_cli_list(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for expected in ("arch", "uarch", "rtl", "stringsearch", "fig1",
                     "sweep-smoke", "sweep axes"):
        assert expected in out


def test_cli_run_rejects_unknown_preset():
    from repro.cli import main

    with pytest.raises(SystemExit) as err:
        main(["run", "no-such-preset"])
    assert "available" in str(err.value)


def test_cli_run_reports_bad_set_field():
    from repro.cli import main

    with pytest.raises(SystemExit) as err:
        main(["run", "fig1", "--set", "faults.smaples=4"])
    assert "faults.smaples" in str(err.value)


@pytest.mark.parametrize("name, args", [
    ("fig1", ["--set", "targets.workloads=stringsearch",
              "--set", "faults.samples=2"]),
    ("table2", ["--set", "targets.workloads=sha",
                "--set", "present.rtl_traced=false"]),
])
def test_preset_subcommands_are_run_aliases(name, args, monkeypatch,
                                            capsys):
    """``repro-study NAME ARGS`` is ``repro-study run NAME ARGS``:
    byte-identical stdout for a figure and for the throughput table."""
    from repro.cli import main
    from repro.core import tables

    # Table II prints measured seconds; pin them so the two runs can
    # be compared byte for byte (the cycle columns stay measured).
    traced = []

    def fixed_seconds(front):
        traced.append(getattr(front, "rtl_config", None))
        return 1.0, front.golden_run()

    monkeypatch.setattr(tables, "_timed_golden", fixed_seconds)
    outputs = []
    for argv in ([name, *args], ["run", name, *args]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[0] == outputs[1]
    if name == "table2":
        assert "sha" in outputs[0]
        assert [c.trace_signals for c in traced if c is not None] == \
            [False, False]


def test_cli_run_scenario_file_with_csv(tmp_path, capsys):
    from repro.cli import main

    scenario = tmp_path / "tiny.toml"
    scenario.write_text("""
[scenario]
name = "tiny"

[targets]
levels = ["arch"]
workloads = ["stringsearch"]
structures = ["regfile"]
modes = ["pinout"]

[faults]
samples = 4
""")
    csv_path = tmp_path / "out" / "cells.csv"
    assert main(["run", str(scenario), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "arch/stringsearch/regfile/pinout" in out
    assert csv_path.read_text().startswith("cell,mode,sweep,")


def test_cli_version_single_sourced_in_setup():
    import pathlib

    setup_text = (pathlib.Path(__file__).resolve().parent.parent
                  / "setup.py").read_text()
    assert "read_version()" in setup_text
    assert 'version="0' not in setup_text  # no duplicated literal
