"""Parallel campaign executor: determinism, sharding, serial fallback."""

import multiprocessing
import pickle

import pytest

from repro.injection import executor, supervisor
from repro.injection.campaign import Campaign, CampaignConfig
from repro.isa import assemble
from repro.isa.toolchain import Toolchain
from repro.uarch import CortexA9Config, MicroArchSim
from support import record_keys, truncate_records

#: Same tiny workload as test_campaign.py: fast enough that a campaign
#: can run several times (serial + parallel) inside one test.
TINY_SRC = """
    .text
_start:
    ldr  r1, =buffer
    movw r2, #0
    movw r3, #64
fill:
    mul  r4, r2, r2
    str  r4, [r1, r2, lsl #2]
    add  r2, r2, #1
    cmp  r2, r3
    blt  fill
    movw r0, #0
    movw r2, #0
fold:
    ldr  r4, [r1, r2, lsl #2]
    movw r5, #31
    mul  r0, r0, r5
    add  r0, r0, r4
    add  r2, r2, #1
    cmp  r2, r3
    blt  fold
    svc  #3
    movw r0, #10
    svc  #1
    movw r0, #0
    svc  #0
    .pool
    .data
buffer: .space 256
"""


@pytest.fixture(scope="module")
def tiny_program():
    return assemble(TINY_SRC, name="tiny", toolchain=Toolchain("gnu"))


class TinyFactory:
    """Picklable simulator factory (a lambda would break spawn)."""

    def __init__(self, program):
        self.program = program

    def __call__(self):
        config = CortexA9Config(dcache_size=1024, icache_size=1024)
        return MicroArchSim(self.program, config)


def run_campaign(program, **config_kwargs):
    # prune_mode="off": these tests pin the executor's sharding and
    # merge mechanics, which need every sampled fault to actually reach
    # the faulty phase (pruning would thin the work list; its own
    # equivalence suite lives in tests/test_prune.py).
    config = CampaignConfig(samples=16, window=800, seed=9,
                            prune_mode="off", **config_kwargs)
    campaign = Campaign(TinyFactory(program), "regfile", config,
                        workload="tiny", level="uarch")
    return campaign.run()


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------

def test_shard_covers_all_specs_in_order():
    specs = list(range(10))
    batches = executor.shard(specs, jobs=3)
    merged = []
    for start, faults in batches:
        assert specs[start:start + len(faults)] == faults
        merged.extend(faults)
    assert merged == specs


def test_shard_explicit_batch_size():
    batches = executor.shard(list(range(7)), jobs=2, batch_size=3)
    assert [(s, len(f)) for s, f in batches] == [(0, 3), (3, 3), (6, 1)]


def test_shard_empty():
    assert executor.shard([], jobs=4) == []


def test_default_jobs_positive():
    assert executor.default_jobs() >= 1


def test_resolve_start_method():
    available = multiprocessing.get_all_start_methods()
    assert executor.resolve_start_method() in available
    assert executor.resolve_start_method("spawn") == "spawn"
    with pytest.raises(ValueError):
        executor.resolve_start_method("telepathy")


# ----------------------------------------------------------------------
# config knobs
# ----------------------------------------------------------------------

def test_config_rejects_bad_jobs():
    with pytest.raises(ValueError):
        CampaignConfig(jobs=0)
    with pytest.raises(ValueError):
        CampaignConfig(batch_size=0)
    # Lane counts follow the jobs rule: a non-bool int >= 1 (a float or
    # a bool would otherwise run int(value) lanes under another header).
    for lanes in (0, None, 2.5, True, "4"):
        with pytest.raises(ValueError):
            CampaignConfig(batch_lanes=lanes)


def test_config_resolves_auto_jobs():
    config = CampaignConfig(jobs=None)
    assert config.resolved_jobs() == executor.default_jobs()
    # Never more workers than faults.
    assert config.resolved_jobs(samples=1) == 1
    assert CampaignConfig(jobs=8).resolved_jobs(samples=3) == 3


def test_config_describe_mentions_jobs():
    assert "jobs=4" in CampaignConfig(jobs=4).describe()
    assert "jobs" not in CampaignConfig().describe()


# ----------------------------------------------------------------------
# serial fallback: jobs=1 must never touch a process pool
# ----------------------------------------------------------------------

def test_jobs1_never_spawns_pool(tiny_program, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("jobs=1 must not start worker processes")

    monkeypatch.setattr(supervisor, "WorkerSupervisor", boom)
    monkeypatch.setattr(multiprocessing, "Pool", boom)
    monkeypatch.setattr(multiprocessing, "Process", boom)
    result = run_campaign(tiny_program, jobs=1)
    assert result.n == 16
    assert result.jobs == 1


# ----------------------------------------------------------------------
# equivalence: same seed => identical records, any worker count
# ----------------------------------------------------------------------

def test_parallel_matches_serial(tiny_program):
    serial = run_campaign(tiny_program, jobs=1)
    parallel = run_campaign(tiny_program, jobs=2)
    assert parallel.jobs == 2
    # Requesting more workers than batches reports the clamped count.
    clamped = run_campaign(tiny_program, jobs=16, batch_size=8)
    assert clamped.jobs == 2
    assert record_keys(clamped) == record_keys(serial)
    assert record_keys(parallel) == record_keys(serial)
    assert parallel.summary()["unsafeness"] == serial.summary()["unsafeness"]


def test_parallel_spawn_matches_serial(tiny_program):
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawn not available")
    serial = run_campaign(tiny_program, jobs=1)
    spawned = run_campaign(tiny_program, jobs=2, start_method="spawn")
    assert record_keys(spawned) == record_keys(serial)


def test_single_batch_degenerates_in_process(tiny_program, monkeypatch):
    # batch_size >= samples leaves one batch; the executor must fall
    # back to in-process execution rather than paying for a 1-task pool.
    monkeypatch.setattr(multiprocessing, "Pool", None)

    def no_pool(method=None):
        raise AssertionError("degenerate shard must not build a context")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    serial = run_campaign(tiny_program, jobs=1)
    degenerate = run_campaign(tiny_program, jobs=4, batch_size=100)
    assert record_keys(degenerate) == record_keys(serial)
    # The result reports the *effective* worker count, not the request.
    assert degenerate.jobs == 1


def test_parallel_progress_reaches_total(tiny_program):
    seen = []
    config = CampaignConfig(samples=12, window=800, seed=9, jobs=2,
                            prune_mode="off")
    campaign = Campaign(TinyFactory(tiny_program), "regfile", config,
                        workload="tiny", level="uarch")
    campaign.run(progress=lambda done, total, rec: seen.append((done,
                                                                total)))
    assert seen[-1] == (12, 12)
    assert [d for d, _ in seen] == sorted(d for d, _ in seen)


@pytest.mark.parametrize("samples,batch_size", [(13, 5), (16, 5),
                                                (10, 3)])
def test_progress_counts_each_fault_exactly_once(tiny_program, samples,
                                                 batch_size):
    """Regression: uneven batch splits (batch_size not dividing the
    fault count) must neither double-count nor drop merged batches --
    the done counter's increments partition the fault set exactly."""
    seen = []
    config = CampaignConfig(samples=samples, window=800, seed=9, jobs=2,
                            batch_size=batch_size, prune_mode="off")
    campaign = Campaign(TinyFactory(tiny_program), "regfile", config,
                        workload="tiny", level="uarch")
    result = campaign.run(
        progress=lambda done, total, rec: seen.append((done, total)))
    assert result.n == samples
    assert all(total == samples for _, total in seen)
    dones = [d for d, _ in seen]
    assert dones == sorted(dones), "done counter must be monotone"
    assert dones[-1] == samples
    increments = [b - a for a, b in zip([0] + dones, dones)]
    assert sum(increments) == samples
    assert all(inc > 0 for inc in increments), (
        "a merged batch was double-counted or reported empty"
    )


def test_resumed_progress_counts_only_remaining(tiny_program, tmp_path):
    """Regression companion: with a partially resumed store the done
    counter covers exactly the re-run faults, and the merged result
    still holds every fault exactly once."""
    from repro.injection.store import CampaignStore

    def campaign(jobs=1, batch_size=None):
        config = CampaignConfig(samples=13, window=800, seed=9,
                                jobs=jobs, batch_size=batch_size,
                                prune_mode="off")
        return Campaign(TinyFactory(tiny_program), "regfile", config,
                        workload="tiny", level="uarch")

    reference = campaign().run()
    store = CampaignStore(tmp_path / "s")
    campaign().run(store=store)
    # Drop all but 4 records; the resumed run re-runs the other 9.
    truncate_records(store.path, 4)
    seen = []
    resumed = campaign(jobs=2, batch_size=5).run(
        store=CampaignStore(tmp_path / "s"), resume=True,
        progress=lambda done, total, rec: seen.append((done, total)))
    assert resumed.resumed == 4
    assert resumed.n == 13
    assert record_keys(resumed) == record_keys(reference)
    assert seen[-1] == (9, 9)
    dones = [d for d, _ in seen]
    assert dones == sorted(dones) and len(set(dones)) == len(dones)


# ----------------------------------------------------------------------
# payload picklability (what the pool initializer ships)
# ----------------------------------------------------------------------

def test_runner_payload_pickles(tiny_program):
    from repro.injection.campaign import FaultRunner
    from repro.injection.checkpoint_cache import CheckpointCache

    factory = TinyFactory(tiny_program)
    sim = factory()
    cache = CheckpointCache(stride=500)
    cache.capture_golden(sim)
    golden = {"cache": cache, "pinout_keys": [], "output": b""}
    runner = FaultRunner(CampaignConfig(samples=1), golden, 10_000)
    clone_factory, clone_runner = pickle.loads(
        pickle.dumps((factory, runner)))
    assert clone_runner.hang_deadline == 10_000
    clone_cache = clone_runner.golden["cache"]
    assert clone_cache.count == cache.count
    assert clone_cache.digests == cache.digests
    assert clone_factory().cycle == 0


def test_bounded_cache_shrinks_worker_payload(tiny_program):
    """The LRU bound caps what the pool initializer serializes."""
    from repro.injection.campaign import FaultRunner
    from repro.injection.checkpoint_cache import CheckpointCache

    factory = TinyFactory(tiny_program)
    sizes = {}
    for bound in (None, 2):
        sim = factory()
        cache = CheckpointCache(stride=300, max_resident=bound)
        cache.capture_golden(sim)
        runner = FaultRunner(CampaignConfig(samples=1),
                             {"cache": cache, "pinout_keys": [],
                              "output": b""}, 10_000)
        sizes[bound] = len(pickle.dumps((factory, runner)))
    assert sizes[2] < sizes[None]


def test_speedup_properties(tiny_program):
    result = run_campaign(tiny_program, jobs=2)
    assert result.estimated_serial_seconds > 0.0
    assert result.speedup > 0.0
    summary = result.summary()
    assert summary["jobs"] == 2
    assert summary["total_s"] == result.total_seconds
