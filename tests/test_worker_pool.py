"""One worker pool per scenario run.

``ScenarioRunner.run`` owns a single :class:`~repro.injection
.supervisor.WorkerSupervisor`: workers are spawned lazily up to the
grid's ``jobs``, each golden run is captured once, by a worker that
then holds it, and shipped at most once to each other worker, a
respawned worker is re-shipped what it needs, and no worker outlives
the run -- whether it returns or raises.
"""

import multiprocessing

import pytest

from repro.injection.supervisor import WorkerSupervisor
from repro.scenario import ScenarioRunner, ScenarioSpec
from support import record_keys

#: 2 (level, workload) pairs x 2 cells (campaign seeds) each.
GRID = {
    "targets": {"levels": ["rtl"], "workloads": ["sha", "fft"],
                "structures": ["regfile"], "modes": ["pinout"]},
    "faults": {"samples": 8},
    "execution": {"prune": "off"},
    "sweep": {"seed": [3, 4]},
}


def run_grid(jobs, monkeypatch=None, progress=None):
    """Run the grid; returns ``(per-cell records, spawned worker ids,
    (worker id, golden token) shipments, (worker id, golden token)
    captures)``."""
    spawned, shipped, captured = [], [], []
    if monkeypatch is not None:
        spawn, ship = WorkerSupervisor._spawn, WorkerSupervisor._ship
        dispatch = WorkerSupervisor._dispatch

        def counting_spawn(self):
            worker = spawn(self)
            spawned.append(worker.id)
            return worker

        def counting_ship(self, worker, token):
            shipped.append((worker.id, token))
            return ship(self, worker, token)

        def counting_dispatch(self, worker, task):
            if task.message()[0] == "capture":
                captured.append((worker.id, task.token))
            return dispatch(self, worker, task)

        monkeypatch.setattr(WorkerSupervisor, "_spawn", counting_spawn)
        monkeypatch.setattr(WorkerSupervisor, "_ship", counting_ship)
        monkeypatch.setattr(WorkerSupervisor, "_dispatch",
                            counting_dispatch)
    mapping = {**GRID, "execution": {**GRID["execution"], "jobs": jobs}}
    results = ScenarioRunner(ScenarioSpec.from_mapping(mapping),
                             progress=progress).run()
    records = {cell.label(): record_keys(result)
               for cell, result in results}
    return records, spawned, shipped, captured


@pytest.fixture(scope="module")
def serial_records():
    records, _, _, _ = run_grid(jobs=1)
    assert len(records) == 4
    return records


def test_one_pool_spawns_once_and_ships_each_golden_once(
        serial_records, monkeypatch):
    records, spawned, shipped, captured = run_grid(2, monkeypatch)
    assert len(spawned) == 2
    # Each golden is captured once, by a worker that then holds it as
    # if shipped: only the other worker can need it shipped, once.
    assert len({token for _, token in captured}) == len(captured) == 2
    assert len(shipped) == len(set(shipped)) <= 2
    assert not set(shipped) & set(captured)
    assert {token for _, token in shipped} <= \
        {token for _, token in captured}
    assert records == serial_records
    assert multiprocessing.active_children() == []


def test_goldens_are_captured_by_workers_once_per_key(
        serial_records, monkeypatch):
    """At jobs = 2 the parent never runs a golden phase: each golden
    key is captured exactly once, as a worker task."""
    from repro.injection.campaign import Campaign

    in_parent, keys = [], []
    golden_phase = Campaign._golden_phase
    capture = WorkerSupervisor.capture

    def parent_golden_phase(self, sim, result):
        # A forked worker records into its own copy of the list.
        in_parent.append(self.golden_key())
        return golden_phase(self, sim, result)

    def counting_capture(self, campaign, on_golden):
        keys.append(campaign.golden_key())
        return capture(self, campaign, on_golden)

    monkeypatch.setattr(Campaign, "_golden_phase", parent_golden_phase)
    monkeypatch.setattr(WorkerSupervisor, "capture", counting_capture)
    records, _, _, _ = run_grid(2)
    assert records == serial_records
    assert in_parent == []
    assert len(keys) == len(set(keys)) == 2


def test_crashed_worker_is_respawned_and_reshipped(
        serial_records, monkeypatch):
    # Fault #3 of every campaign segfaults its worker once.
    monkeypatch.setenv("REPRO_CHAOS", "segv@3")
    records, spawned, shipped, _ = run_grid(2, monkeypatch)
    assert len(spawned) > 2
    respawned = set(spawned[2:])
    assert any(worker in respawned for worker, _ in shipped)
    assert len(shipped) == len(set(shipped))
    assert records == serial_records
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_failing_run():
    def fail_after_first_cell(done, total, cell, result):
        raise RuntimeError("stop here")

    with pytest.raises(RuntimeError, match="stop here"):
        run_grid(2, progress=fail_after_first_cell)
    assert multiprocessing.active_children() == []


def test_lone_campaign_pool_is_one_shot():
    from repro.sim import registry

    front = registry.create_frontend("rtl", "sha")
    result = front.campaign("regfile", samples=6, seed=5, jobs=2,
                            prune_mode="off")
    assert result.jobs == 2
    assert multiprocessing.active_children() == []
