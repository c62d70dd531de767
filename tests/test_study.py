"""The cross-level study through the scenario API: runner caching and
front-end dispatch, front-ends, tables, figures and the CLI."""

import pytest

from repro.core.figures import figure_series, render_figure
from repro.core.tables import (
    render_table1,
    render_table2,
    table1_rows,
    table2_rows,
)
from repro.injection import GeFIN, SafetyVerifier
from repro.scenario import ScenarioRunner, ScenarioSpec, load_preset
from repro.sim.frontend import Frontend


def test_table1_matches_paper_exactly():
    rows = dict(table1_rows())
    assert rows == {
        "ISA / Core": "ARMv7 / Out-of-order",
        "Data cache": "32KB 4-way",
        "Instruction cache": "32KB 4-way",
        "Physical Register File": "56 registers",
        "Instruction queue": "32",
        "Reorder buffer": "40",
        "Fetch/Execute/Writeback width": "2/4/4",
    }


def test_render_table1_text():
    text = render_table1()
    assert "TABLE I" in text and "56 registers" in text


def test_table2_single_workload():
    rows, average = table2_rows(("stringsearch",), rtl_traced=False)
    assert len(rows) == 1
    row = rows[0]
    assert row["rtl_s_per_run"] > 0 and row["gefin_s_per_run"] > 0
    assert row["rtl_kcycles"] > row["gefin_kcycles"]  # in-order slower
    text = render_table2(rows, average)
    assert "TABLE II" in text and "stringsearch" in text


def test_gefin_front_end_defaults():
    front = GeFIN("sha")
    assert front.toolchain.name == "gnu"
    assert front.core_config.dcache_size == GeFIN.SCALED_CACHE_BYTES
    sim = front.sim_factory()
    assert sim.LEVEL == "uarch"


def test_safety_verifier_front_end_defaults():
    front = SafetyVerifier("sha")
    assert front.toolchain.name == "armcc"
    assert front.rtl_config.trace_signals is False
    sim = front.sim_factory()
    assert sim.LEVEL == "rtl"


def test_front_ends_unscaled_option():
    front = GeFIN("sha", scaled_caches=False)
    assert front.core_config.dcache_size == 32 * 1024


def test_gefin_mode_validation():
    front = GeFIN("sha")
    with pytest.raises(ValueError):
        front.make_config("bogus", 10)
    with pytest.raises(ValueError):
        SafetyVerifier("sha").campaign("regfile", mode="bogus", samples=1)


def test_gefin_golden_run():
    sim = GeFIN("stringsearch").golden_run()
    assert sim.exited and sim.exit_code == 0


def _count_campaigns(monkeypatch):
    """Count every campaign a front-end starts from here on."""
    started = []
    campaign = Frontend.campaign

    def counting(self, *args, **kwargs):
        started.append((self.LEVEL, self.workload))
        return campaign(self, *args, **kwargs)

    monkeypatch.setattr(Frontend, "campaign", counting)
    return started


def test_runner_caches_cell_results(monkeypatch):
    spec = load_preset("fig1", overrides=[
        "targets.workloads=stringsearch", "faults.samples=6",
        "faults.seed=9"])
    runner = ScenarioRunner(spec)
    first = runner.run()
    fig1 = first.series(spec.present["series"])
    assert set(fig1) == {"GeFIN", "RTL", "GeFIN-no timer"}
    for series in fig1.values():
        assert set(series) == {"stringsearch"}
        assert series["stringsearch"].n == 6
    # re-running the same cells recalls the same result objects
    started = _count_campaigns(monkeypatch)
    second = runner.run()
    assert not started
    assert second is not first
    assert all(a is b for a, b in zip(first.results, second.results))


def test_headline_after_fig1_and_fig3_starts_no_campaign(monkeypatch):
    overrides = ["targets.workloads=stringsearch", "faults.samples=2"]
    runner = ScenarioRunner(load_preset("fig1", overrides=overrides))

    def cells(name):
        spec = load_preset(name, overrides=overrides)
        return [c for c in spec.cells() if c.workload == "stringsearch"]

    runner.run(cells("fig1"))
    runner.run(cells("fig3"))
    started = _count_campaigns(monkeypatch)
    headline = runner.run(cells("headline"))
    assert len(headline) == 5
    assert not started


def test_figure_series_conversion():
    class _Stub:
        def __init__(self, v):
            self.unsafeness = v

    results = {"GeFIN": {"a": _Stub(0.1), "b": _Stub(0.2)},
               "RTL": {"a": _Stub(0.3), "b": _Stub(0.4)}}
    series, labels = figure_series(results)
    assert labels == ["a", "b"]
    assert series["RTL"] == [0.3, 0.4]
    chart = render_figure(results, "Fig. X")
    assert "Fig. X" in chart


def _sha_spec(**execution):
    return ScenarioSpec.from_mapping({
        "targets": {"workloads": ["sha"]},
        "faults": {"samples": 5},
        "execution": execution,
    })


def test_same_binaries_puts_rtl_on_the_uarch_toolchain():
    runner = ScenarioRunner(_sha_spec(same_binaries=True))
    assert runner._frontend("rtl", "sha").toolchain.name == "gnu"
    default = ScenarioRunner(_sha_spec())
    assert default._frontend("rtl", "sha").toolchain.name == "armcc"


def test_runner_frontend_dispatches_via_registry():
    runner = ScenarioRunner(_sha_spec())
    for level in ("arch", "uarch", "rtl"):
        assert runner._frontend(level, "sha").LEVEL == level


def test_describe_identifies_parallel_run():
    text = _sha_spec(jobs=4, batch_size=2).describe()
    assert "jobs=4" in text and "batch=2" in text and "seed=2017" in text
    assert "jobs" not in _sha_spec().describe()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_table1(capsys):
    from repro.cli import main

    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "TABLE I" in out


def test_cli_golden(capsys):
    from repro.cli import main

    assert main(["golden", "stringsearch", "--level", "uarch"]) == 0
    out = capsys.readouterr().out
    assert "exited=True" in out


def test_cli_rejects_unknown_workload():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["fig1", "--set", "targets.workloads=bogus"])
