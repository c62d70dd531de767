"""Self-checks of the campaign benchmark: tracer arithmetic, the tail
rule, compare verdicts, the class oracle and a traced smoke pass."""

import json

import pytest

from bench import child, compare, run, stats, trace


def _span(name, start, end, parent=-1, cycles=0, tier=None):
    return trace.Span(name, start, end, parent, tier=tier, cycles=cycles)


def test_self_time_subtracts_direct_children():
    spans = [
        _span("fault", 0, 100),
        _span("seek", 10, 40, parent=0),
        _span("sim.restore", 15, 25, parent=1),
        _span("sim.run", 50, 70, parent=0),
    ]
    assert trace.self_times(spans) == [50, 20, 10, 20]


def test_run_phases_split_by_caller():
    spans = [
        _span("golden", 0, 10),
        _span("sim.run", 1, 9, parent=0),          # golden
        _span("fault", 10, 50),
        _span("seek", 11, 20, parent=2),
        _span("sim.run", 12, 19, parent=3),        # replay inside seek
        _span("sim.run", 20, 30, parent=2),        # advance
        _span("sim.run", 30, 49, parent=2),        # tail
    ]
    assert trace.run_phases(spans) == {
        1: "golden", 4: "seek", 5: "advance", 6: "tail"}


def test_layer_metrics_rates_shares_and_fallbacks():
    spans = [
        _span("cell", 0, 4_000_000_000),
        _span("lanes.rtl", 0, 2_000_000_000, parent=0),
        _span("sim.run", 0, 500_000_000, parent=1, cycles=5000,
              tier="rtl"),
        _span("fault", 500_000_000, 1_000_000_000, parent=1),
        _span("prune.dead", 2_000_000_000, 3_000_000_000, parent=0),
    ]
    spans[1].count = 8
    metrics = trace.layer_metrics(spans)
    assert metrics["prune.share"] == pytest.approx(0.25)
    assert metrics["static.build_share"] == 0.0
    assert metrics["sim.rtl.kcycles_per_s"] == pytest.approx(10.0)
    assert metrics["sim.arch.kcycles_per_s"] == 0.0
    assert metrics["lanes.rtl.faults_per_s"] == pytest.approx(4.0)
    assert metrics["lanes.fallback_ratio"] == pytest.approx(1 / 8)
    assert metrics["fault.self_s"] == pytest.approx(0.5)


@pytest.mark.parametrize("n, pct, rank", [
    (1000, 99, 990), (100, 90, 90), (20, 50, 10), (15, 50, 8),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, rank):
    values = list(range(1, n + 1))
    assert stats.tail_percentile(values) == (pct, rank)


def test_tail_percentile_of_nothing():
    assert stats.tail_percentile([]) == (0, 0.0)


@pytest.mark.parametrize("base, new, better, expected", [
    ([100, 101, 99], [104, 103, 105], "higher", "within-bound"),
    ([100, 101, 99], [80, 81, 79], "higher", "regressed"),
    ([100, 101, 99], [130, 131, 129], "higher", "improved"),
    ([100, 101, 99], [70, 81, 79], "lower", "improved"),
    ([100, 101, 99], [130, 131, 129], "lower", "regressed"),
    ([60, 100, 140], [90, 105, 130], "higher", "unresolved"),
    ([60, 100, 140], [150, 160, 170], "higher", "improved"),
    ([60, 100, 140], [20, 30, 40], "higher", "regressed"),
])
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(stats.summarize(base), stats.summarize(new),
                           better, 0.1) == expected


def test_compare_flags_changed_work_counts():
    def result(fps, lane_kcycles):
        return {"campaign_seeds": {"w": [1, 2]}, "workloads": {"w": {
            "metrics": {"faults_per_s": stats.summarize(fps)},
            "work": {"work.lane_kcycles": lane_kcycles}}}}

    metrics = [{"name": "faults_per_s", "better": "higher", "bound": 0.1}]
    rows, changed = compare.compare(result([10, 10, 10], 5.0),
                                    result([10, 10, 10], 6.0), metrics)
    assert [row[-1] for row in rows] == ["within-bound"]
    assert changed == [("w", "work.lane_kcycles", 5.0, 6.0)]


def test_doctored_oracle_yields_errors(tmp_path, monkeypatch):
    oracle = run.load_expected()
    workload = sorted(oracle)[0]
    observed = dict(oracle[workload])
    label = sorted(observed)[0]
    assert run.mismatches(observed, oracle[workload]) == 0

    doctored = json.loads(run.EXPECTED.read_text())
    letters = doctored["workloads"][workload][label]
    flipped = "S" if letters[0] != "S" else "M"
    doctored["workloads"][workload][label] = flipped + letters[1:]
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(doctored))
    monkeypatch.setattr(run, "EXPECTED", path)
    errors = run.mismatches(observed, run.load_expected()[workload])
    sampled = sum(len(s) for s in observed.values())
    assert errors / sampled > 0

    quarantined = dict(observed, **{label: "!" + letters[1:]})
    assert run.mismatches(quarantined, oracle[workload]) == 1


def test_missing_trace_target_fails_loudly(monkeypatch):
    from repro.sim.base import SimulatorBase

    original = SimulatorBase.run
    monkeypatch.setattr(trace, "TARGETS", trace.TARGETS + (
        ("repro.sim.base", "SimulatorBase", "no_such_method", "x"),))
    with pytest.raises(AttributeError, match="no_such_method"):
        trace.Tracer().install()
    assert SimulatorBase.run is original


SMOKE = """
[targets]
levels = {levels}
workloads = ["sha"]
structures = ["regfile"]
modes = ["pinout"]

[faults]
samples = 4

[execution]
lanes = {lanes}

[sweep]
prune = {prune}
"""


def test_traced_smoke_pass_fires_every_wrapper(tmp_path):
    """Two 4-fault passes: arch + rtl lane engines, then the scalar arch
    path under every prune mode.  Every wrapper must fire, and the
    reports must carry every per-layer metric BENCHMARK.json lists."""
    passes = (('["arch", "rtl"]', 4, '["off"]'),
              ('["arch"]', 1, '["off", "dead", "static"]'))
    fired = dict.fromkeys(trace.SPAN_NAMES, 0)
    for k, (levels, lanes, prune) in enumerate(passes):
        spec = tmp_path / f"smoke{k}.toml"
        spec.write_text(SMOKE.format(levels=levels, lanes=lanes,
                                     prune=prune))
        spans = tmp_path / f"trace{k}.jsonl"
        report = child.run_round({
            "mode": "round", "spec": str(spec), "seeds": [1],
            "trace": str(spans), "resume": True,
            "store_root": str(tmp_path)})
        for name, count in report["fired"].items():
            fired[name] += count
        assert spans.read_text().count("\n") == sum(
            report["fired"].values())
    assert all(fired.values()), fired

    layers = run.per_layer(report, report, report)
    names = {m["name"] for m in run.load_benchmark()["per_layer"]}
    assert names == set(layers)
    assert report["resume_s"] > 0
    assert not list(tmp_path.glob("store-*"))
