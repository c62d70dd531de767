"""The failure model: supervised workers, quarantine, chaos, shutdown.

``repro.injection.supervisor`` promises that execution failures --
worker crashes, hangs past the batch deadline, in-run exceptions --
change *where and when* a fault executes, never *what* it computes:

* a retried fault's record is bit-identical to an undisturbed run
  (the retry-determinism matrix below, across jobs x warm/cold x
  prune);
* a *poison* fault is bisected out of its batch and quarantined as an
  ``Incident`` after its retry budget, while every other fault
  classifies bit-identically (the campaign completes *degraded*);
* ``jobs=N`` never deadlocks on worker death -- even when every batch
  crashes once (``segv@*``);
* the first SIGINT/SIGTERM drains, the second hard-kills
  (:class:`GracefulShutdown`; the end-to-end signal tests against a
  real child process live in ``tests/test_store.py``).

All failures are injected deterministically through the ``ChaosSpec``
hook (``CampaignConfig(chaos=...)`` / ``REPRO_CHAOS``), which is itself
pinned here: grammar, one-shot vs persistent semantics, and its
exclusion from the store identity.
"""

import os
import signal

import pytest

from repro.errors import ExecutionError
from repro.injection import supervisor
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.supervisor import (
    ChaosError,
    ChaosSpec,
    GracefulShutdown,
    resolve_chaos,
    resolve_start_method,
)
from repro.scenario.presets import preset_path
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import ScenarioSpec, load_mapping
from repro.sim import registry
from support import record_keys

SAMPLES = 8
SEED = 13
WINDOW = 800


def make_factory(workload="stringsearch"):
    return registry.create_frontend("arch", workload).sim_factory


def run_campaign(factory, workload="stringsearch", structure="regfile",
                 **config_kwargs):
    kwargs = {"samples": SAMPLES, "window": WINDOW, "seed": SEED}
    kwargs.update(config_kwargs)
    store = kwargs.pop("store", None)
    resume = kwargs.pop("resume", False)
    config = CampaignConfig(**kwargs)
    campaign = Campaign(factory, structure, config,
                        workload=workload, level="arch")
    return campaign.run(store=store, resume=resume)


# ----------------------------------------------------------------------
# ChaosSpec grammar and semantics
# ----------------------------------------------------------------------

def test_chaos_parse_round_trip():
    spec = ChaosSpec.parse("segv@3, hang*@7 ,raise@*,sleep@0")
    assert str(spec) == "segv@3,hang*@7,raise@*,sleep@0"
    assert spec.entries == (("segv", 3, False), ("hang", 7, True),
                            ("raise", None, False), ("sleep", 0, False))


def test_chaos_parse_none_and_blank():
    assert ChaosSpec.parse(None) is None
    assert ChaosSpec.parse("") is None
    assert ChaosSpec.parse(" , ") is None
    spec = ChaosSpec.parse("raise@1")
    assert ChaosSpec.parse(spec) is spec


@pytest.mark.parametrize("text, fragment", [
    ("segv", "expected kind@index"),
    ("segv@", "expected kind@index"),
    ("sgev@3", "did you mean 'segv'"),
    ("raise@x", "bad chaos index"),
    ("raise@-1", "must be >= 0"),
])
def test_chaos_parse_rejects(text, fragment):
    with pytest.raises(ExecutionError, match=".*"):
        try:
            ChaosSpec.parse(text)
        except ExecutionError as exc:
            assert fragment in str(exc)
            raise


def test_chaos_one_shot_fires_only_on_first_attempt():
    spec = ChaosSpec.parse("raise@2")
    spec.fire(1, 0)                      # wrong index: no-op
    with pytest.raises(ChaosError):
        spec.fire(2, 0)
    spec.fire(2, 1)                      # retry: transient is gone


def test_chaos_persistent_fires_on_every_attempt():
    spec = ChaosSpec.parse("raise*@2")
    for attempt in range(3):
        with pytest.raises(ChaosError):
            spec.fire(2, attempt)


def test_chaos_kill_kinds_ignored_in_process():
    # segv/hang with allow_kill=False must be a no-op -- firing them
    # in the supervising process would kill the test runner itself.
    ChaosSpec.parse("segv@0,hang@0").fire(0, 0, allow_kill=False)


def test_resolve_chaos_prefers_config_then_env(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "hang@1")
    assert str(resolve_chaos("segv@0")) == "segv@0"
    assert str(resolve_chaos(None)) == "hang@1"
    monkeypatch.delenv("REPRO_CHAOS")
    assert resolve_chaos(None) is None


def test_chaos_excluded_from_identity_but_described():
    plain = CampaignConfig(samples=4)
    chaotic = CampaignConfig(samples=4, chaos="segv@1")
    assert plain.identity() == chaotic.identity()
    assert "chaos=segv@1" in chaotic.describe()
    assert "chaos" not in plain.describe()


# ----------------------------------------------------------------------
# execution-knob validation (satellites: start_method, jobs/batch_size)
# ----------------------------------------------------------------------

def test_start_method_did_you_mean():
    with pytest.raises(ExecutionError, match="did you mean 'fork'"):
        resolve_start_method("frk")
    with pytest.raises(ExecutionError, match="choose one of"):
        resolve_start_method("not-a-method")


def test_config_validates_start_method_eagerly():
    with pytest.raises(ExecutionError, match="unknown start method"):
        CampaignConfig(samples=4, start_method="frk")


@pytest.mark.parametrize("kwargs", [
    {"jobs": 0}, {"jobs": -2}, {"jobs": 1.5}, {"jobs": True},
    {"batch_size": 0}, {"batch_size": -1}, {"batch_size": "4"},
    {"samples": -1}, {"samples": 2.5}, {"samples": True},
    {"retries": 0}, {"retries": -1}, {"retries": 1.5},
    {"batch_timeout": 0}, {"batch_timeout": -3}, {"batch_timeout": "5"},
    {"window": 0}, {"window": -50}, {"window": 2.5}, {"window": True},
    {"hang_factor": -1.0}, {"hang_factor": 0.5}, {"hang_factor": True},
    {"hang_factor": "3"}, {"hang_factor": float("nan")},
])
def test_config_rejects_bad_execution_knobs(kwargs):
    with pytest.raises((ValueError, TypeError)):
        CampaignConfig(**kwargs)


# ----------------------------------------------------------------------
# retry determinism: chaos-retried fault == undisturbed run
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=["off", "dead"],
                ids=lambda p: f"prune_{p}")
def undisturbed_reference(request):
    """Per prune mode: the factory plus the chaos-free warm serial
    reference records."""
    prune = request.param
    factory = make_factory()
    reference = run_campaign(factory, prune_mode=prune)
    assert reference.n == SAMPLES
    assert not reference.incidents and not reference.degraded
    return prune, factory, record_keys(reference)


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_retry_determinism_matrix(undisturbed_reference, jobs, warm):
    """A transient failure at fault #2 -- an in-process exception at
    jobs=1, a worker segfault at jobs=4 -- is retried and the record
    sequence stays bit-identical to the undisturbed reference, across
    warm/cold start and prune off/dead."""
    prune, factory, reference = undisturbed_reference
    chaos = "raise@2" if jobs == 1 else "segv@2"
    result = run_campaign(factory, prune_mode=prune, warm_start=warm,
                          jobs=jobs, chaos=chaos)
    assert record_keys(result) == reference
    assert not result.incidents and not result.degraded
    if prune == "off":
        # Every fault simulates, so the chaos definitely fired and the
        # clean completion really did ride on a retry.
        assert result.retried_count >= 1
        assert result.summary()["retried"] >= 1


def test_no_deadlock_when_every_batch_crashes_once(undisturbed_reference):
    """segv@* kills a worker on the first attempt of *every* batch; the
    supervisor must respawn and finish rather than deadlock."""
    prune, factory, reference = undisturbed_reference
    result = run_campaign(factory, prune_mode=prune, jobs=4,
                          chaos="segv@*")
    assert record_keys(result) == reference
    assert not result.incidents
    assert result.retried_count >= 1


# ----------------------------------------------------------------------
# poison-fault quarantine
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs, chaos, kind", [
    (1, "raise*@3", "exception"),
    (2, "raise*@3", "exception"),
    (2, "segv*@3", "crash"),
], ids=["serial-exception", "pooled-exception", "pooled-crash"])
def test_poison_fault_quarantined_neighbours_identical(jobs, chaos, kind):
    """A persistently failing fault #3 is quarantined after its retry
    budget; every other fault's record matches the undisturbed run
    (prune off so the poison index is guaranteed to execute)."""
    factory = make_factory()
    reference = run_campaign(factory, prune_mode="off")
    result = run_campaign(factory, prune_mode="off", jobs=jobs,
                          chaos=chaos, batch_size=4)
    assert [i.index for i in result.incidents] == [3]
    incident = result.incidents[0]
    assert incident.disposition == "error"
    assert incident.kind == kind
    assert incident.attempts >= 2
    assert incident.fault.bit == reference.records[3].fault.bit
    assert result.degraded
    assert result.n == SAMPLES - 1
    assert result.summary()["incidents"] == 1
    survivors = [k for i, k in enumerate(record_keys(reference))
                 if i != 3]
    assert record_keys(result) == survivors


def test_hung_batch_killed_and_retried():
    """A transient hang at fault #4 overruns a tight batch_timeout, the
    worker is killed, and the retry completes the campaign clean."""
    factory = make_factory()
    reference = run_campaign(factory, prune_mode="off")
    result = run_campaign(factory, prune_mode="off", jobs=2,
                          chaos="hang@4", batch_timeout=3.0)
    assert record_keys(result) == record_keys(reference)
    assert not result.incidents
    assert result.retried_count >= 1


# ----------------------------------------------------------------------
# graceful shutdown (unit; real child-process signals:tests/test_store.py)
# ----------------------------------------------------------------------

def test_graceful_shutdown_first_signal_drains_second_kills():
    before_int = signal.getsignal(signal.SIGINT)
    before_term = signal.getsignal(signal.SIGTERM)
    with GracefulShutdown() as shutdown:
        assert not shutdown.requested()
        os.kill(os.getpid(), signal.SIGTERM)
        assert shutdown.requested()
        assert shutdown.signame == "SIGTERM"
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGINT)
    assert signal.getsignal(signal.SIGINT) is before_int
    assert signal.getsignal(signal.SIGTERM) is before_term


def test_serial_drain_stops_between_faults():
    """run_serial_supervised finishes the in-flight fault, then stops:
    a drain leaves a prefix of records, never a torn one.  (The public
    drain contract is exercised end to end by the signal tests in
    tests/test_store.py; this pins the primitive directly.)"""
    flushed = []

    def stop():
        return len(flushed) >= 2

    class FakeRunner:
        def run_one(self, sim, spec):
            return f"record-{spec}"

    items = [(i, i) for i in range(4)]
    records, incidents, requeued, drained = \
        supervisor.run_serial_supervised(
            None, FakeRunner(), items,
            on_record=lambda i, r: flushed.append(i), stop=stop)
    assert drained
    assert sorted(records) == [0, 1] and flushed == [0, 1]
    assert not incidents and requeued == 0


# ----------------------------------------------------------------------
# acceptance: the fig1 grid at the arch tier under chaos
# ----------------------------------------------------------------------

def fig1_at_arch(samples=6):
    """The fig1 preset mapping retargeted onto the arch tier (prune off
    so the chaos indices are guaranteed to execute)."""
    mapping = load_mapping(preset_path("fig1"))
    mapping.pop("present", None)
    mapping["grid"] = [{"levels": ["arch"], "modes": ["pinout"]}]
    mapping.setdefault("targets", {})["workloads"] = ["stringsearch"]
    mapping.setdefault("faults", {})["samples"] = samples
    execution = mapping.setdefault("execution", {})
    execution["jobs"] = 2
    execution["prune"] = "off"
    return ScenarioSpec.from_mapping(mapping, source="fig1-at-arch")


def test_fig1_preset_completes_degraded_under_chaos(monkeypatch):
    """The acceptance pin: one transient worker crash plus one
    persistent poison fault; the campaign completes with exactly the
    poison quarantined and every surviving classification
    bit-identical to the undisturbed grid."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    clean = ScenarioRunner(fig1_at_arch()).run()
    monkeypatch.setenv("REPRO_CHAOS", "segv@1,raise*@3")
    chaotic = ScenarioRunner(fig1_at_arch()).run()
    assert len(clean) == len(chaotic) == 1
    for (_, reference), (_, result) in zip(clean, chaotic):
        assert result.degraded
        assert [i.index for i in result.incidents] == [3]
        survivors = [k for i, k in enumerate(record_keys(reference))
                     if i != 3]
        assert record_keys(result) == survivors
        assert result.retried_count >= 1
