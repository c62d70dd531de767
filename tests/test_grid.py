"""The pooled grid schedule: a ``jobs > 1`` scenario run as one stream.

``ScenarioRunner.run`` with ``jobs > 1`` hands the whole grid to
:func:`repro.injection.executor.run_grid`: workers capture the golden
runs, and every cell's faults share one supervised stream.  It must
classify exactly like the cell-by-cell ``jobs = 1`` path -- records
identical down to the per-session replay accounting -- under chaos,
and across a drained SIGINT plus resume.  The grid has 2 levels x 2
workloads x 2 seeds x prune {off, dead}: eight golden runs (the prune
modes capture differently), so captures run ahead of fault work and
goldens are evicted while the stream is busy.
"""

import copy
import os
import signal
import time

import pytest

from repro.errors import CampaignInterrupted
from repro.injection.supervisor import WorkerSupervisor
from repro.scenario import ScenarioRunner, ScenarioSpec

GRID = {
    "targets": {"levels": ["uarch", "rtl"],
                "workloads": ["stringsearch", "sha"],
                "structures": ["regfile"], "modes": ["pinout"]},
    "faults": {"samples": 6},
    "sweep": {"seed": [3, 4], "prune": ["off", "dead"]},
}


def run_grid(jobs, progress=None, **execution):
    mapping = copy.deepcopy(GRID)
    mapping["execution"] = dict(execution, jobs=jobs)
    return ScenarioRunner(ScenarioSpec.from_mapping(mapping),
                          progress=progress).run()


def records(results):
    """Per cell: every record field the classification depends on,
    plus the replay accounting (identical too: nothing is evicted)."""
    return {cell.label(): [(r.fault.bit, r.fault.cycle, r.fclass,
                            r.detail, r.sim_cycles, r.replay_cycles)
                           for r in result.records]
            for cell, result in results}


@pytest.fixture(scope="module")
def serial():
    results = run_grid(1)
    assert len(results) == 16
    return results


def test_grid_matches_serial(serial):
    started = time.perf_counter()
    pooled = run_grid(2)
    wall = time.perf_counter() - started
    assert records(pooled) == records(serial)
    assert all(result.jobs <= 2 for _, result in pooled)
    # One capture per golden run, paid by its first cell.
    assert sum(result.golden_seconds > 0 for _, result in pooled) == 8
    # Cells overlap in time: their wall shares add up to the run, and
    # each reads the grid's serial work / wall.
    shares = [result.total_seconds for _, result in pooled]
    assert 0 < sum(shares) <= wall
    serial_work = sum(result.estimated_serial_seconds
                      for _, result in pooled)
    for _, result in pooled:
        if result.estimated_serial_seconds > 0:
            assert result.speedup == pytest.approx(
                serial_work / sum(shares))


def test_grid_under_chaos_quarantines_then_resumes_nothing(
        serial, tmp_path, monkeypatch):
    """segv@2 kills a worker once per cell; hang*@5 stalls fault #5 of
    every cell that simulates it until it is quarantined.  Every other
    record matches the serial run, and a chaos-free resume completes
    every cell from its store without capturing or simulating."""
    store = str(tmp_path / "stores")
    monkeypatch.setenv("REPRO_CHAOS", "segv@2,hang*@5")
    chaotic = run_grid(2, batch_size=1, batch_timeout=1.0, store=store)
    expected = records(serial)
    for (cell, result), (_, reference) in zip(chaotic, serial):
        simulated = reference.records[5].simulated
        assert [i.index for i in result.incidents] == \
            ([5] if simulated else [])
        assert all(i.kind == "hang" for i in result.incidents)
        assert records([(cell, result)])[cell.label()] == [
            key for i, key in enumerate(expected[cell.label()])
            if not (simulated and i == 5)]
    assert any(result.retried_count for _, result in chaotic)

    monkeypatch.delenv("REPRO_CHAOS")

    def no_capture(*args):
        raise AssertionError("a complete store must not re-run anything")

    monkeypatch.setattr(WorkerSupervisor, "capture", no_capture)
    monkeypatch.setattr(WorkerSupervisor, "submit", no_capture)
    resumed = run_grid(2, batch_size=1, store=store, resume=True)
    assert records(resumed) == records(chaotic)
    for (_, again), (_, first) in zip(resumed, chaotic):
        assert [(i.index, i.kind) for i in again.incidents] == \
            [(i.index, i.kind) for i in first.incidents]
        assert again.resumed == again.n


def test_grid_sigint_drains_then_resume_is_exact(serial, tmp_path):
    """A SIGINT once the first cell completes drains the stream (what
    runs finishes and is stored, the queue is dropped) and raises;
    resuming completes every cell to the serial records."""
    store = str(tmp_path / "stores")
    sent = []

    def interrupt(done, total, cell, result):
        if not sent:
            sent.append(cell)
            os.kill(os.getpid(), signal.SIGINT)

    with pytest.raises(CampaignInterrupted) as err:
        run_grid(2, progress=interrupt, store=store)
    assert err.value.stored
    assert sent
    resumed = run_grid(2, store=store, resume=True)
    assert records(resumed) == records(serial)
    assert any(result.resumed for _, result in resumed)
    assert not all(result.resumed == result.n for _, result in resumed)
