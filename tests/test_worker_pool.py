"""One worker pool per scenario run.

``ScenarioRunner.run`` owns a single :class:`~repro.injection
.supervisor.WorkerSupervisor`: workers are spawned lazily up to a
cell's ``jobs`` and reused by every later cell, each golden payload is
shipped once per (worker, golden), a respawned worker is re-shipped
what it needs, and no worker outlives the run -- whether it returns or
raises.
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
    (worker id, golden token) shipments)``."""
    spawned, shipped = [], []
    if monkeypatch is not None:
        spawn, ship = WorkerSupervisor._spawn, WorkerSupervisor._ship

        def counting_spawn(self):
            worker = spawn(self)
            spawned.append(worker.id)
            return worker

        def counting_ship(self, worker, token):
            shipped.append((worker.id, token))
            return ship(self, worker, token)

        monkeypatch.setattr(WorkerSupervisor, "_spawn", counting_spawn)
        monkeypatch.setattr(WorkerSupervisor, "_ship", counting_ship)
    mapping = {**GRID, "execution": {**GRID["execution"], "jobs": jobs}}
    results = ScenarioRunner(ScenarioSpec.from_mapping(mapping),
                             progress=progress).run()
    records = {cell.label(): record_keys(result)
               for cell, result in results}
    return records, spawned, shipped


@pytest.fixture(scope="module")
def serial_records():
    records, _, _ = run_grid(jobs=1)
    assert len(records) == 4
    return records


def test_one_pool_spawns_once_and_ships_each_golden_once(
        serial_records, monkeypatch):
    records, spawned, shipped = run_grid(2, monkeypatch)
    assert len(spawned) == 2
    assert len(shipped) == len(set(shipped)) == 4
    assert len({token for _, token in shipped}) == 2
    assert records == serial_records
    assert multiprocessing.active_children() == []


def test_crashed_worker_is_respawned_and_reshipped(
        serial_records, monkeypatch):
    # Fault #3 of every campaign segfaults its worker once.
    monkeypatch.setenv("REPRO_CHAOS", "segv@3")
    records, spawned, shipped = run_grid(2, monkeypatch)
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
