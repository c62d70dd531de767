"""Whole-registry exactness pin for the three simulators.

Every registry workload runs fault-free at every tier through that
tier's default campaign front-end, and a fixed ``prune_mode="off"``,
``jobs=1`` fault sample runs at the uarch and rtl tiers.  The results
must equal ``golden_fingerprints.json`` field for field: cycle counts,
retired instructions, cache and predictor counters, the output and the
pinout stream for the golden runs; ``(class, detail, sim_cycles,
replay_cycles)`` per fault for the samples, whose replay is also held
under the in-flight waypoint bound.  Any change to the
simulators' per-cycle code that is meant to be a pure speed-up must
leave this file passing unchanged.

Checksums are ``zlib.crc32`` over bytes or over ``repr`` of plain
tuples, so they hold across interpreters (unlike pickle-based state
digests).  Regenerate the fixture -- only for an intended behaviour
change -- with::

    PYTHONPATH=src python tests/test_golden_fingerprints.py
"""

import json
import pathlib
import zlib

import pytest

from repro.sim import registry
from repro.workloads import WORKLOAD_NAMES

FIXTURE = pathlib.Path(__file__).with_name("golden_fingerprints.json")
LEVELS = ("arch", "uarch", "rtl")
SAMPLE_LEVELS = ("uarch", "rtl")
SAMPLE_WORKLOADS = ("sha", "stringsearch")
SAMPLE_STRUCTURES = ("regfile", "l1d.data")
#: structure -> level -> front-end mode: regfile at the windowed pinout
#: (the Fig. 1 flow), l1d.data run to program end at the software
#: observation point (the Fig. 3 flow, whose tails dominate run time).
SAMPLE_MODES = {
    "regfile": {"uarch": "pinout", "rtl": "pinout"},
    "l1d.data": {"uarch": "avf", "rtl": "sop"},
}
SAMPLES = 6
SEED = 2017


def golden_fingerprint(level, workload):
    sim = registry.create_frontend(level, workload).golden_run()
    stats = sim.stats()
    keys = [t.key(with_timing=True) for t in sim.pinout]
    return {
        "cycles": stats["cycles"],
        "icount": stats["instructions"],
        "exit_code": sim.exit_code,
        "mispredicts": stats["mispredicts"],
        "l1d_hits": stats["l1d_hits"],
        "l1d_misses": stats["l1d_misses"],
        "l1d_writebacks": stats["l1d_writebacks"],
        "l1i_misses": stats["l1i_misses"],
        "output_crc": zlib.crc32(bytes(sim.output)),
        "pinout_len": len(keys),
        "pinout_crc": zlib.crc32(repr(keys).encode()),
    }


def sample_campaign(level, workload, structure):
    """The fixed fault sample: ``(records, golden checkpoint cache)``."""
    frontend = registry.create_frontend(level, workload)
    pool = {}
    result = frontend.campaign(structure, SAMPLE_MODES[structure][level],
                               samples=SAMPLES, seed=SEED,
                               prune_mode="off", jobs=1, golden_pool=pool)
    shared, = pool.values()
    return result.records, shared.golden["cache"]


def sample_fingerprint(level, workload, structure):
    records, _ = sample_campaign(level, workload, structure)
    return [[r.fclass.value, r.detail, r.sim_cycles, r.replay_cycles]
            for r in records]


def _golden_key(level, workload):
    return f"{level}/{workload}"


def _sample_key(level, workload, structure):
    return f"{level}/{workload}/{structure}"


def compute_all():
    return {
        "golden": {
            _golden_key(level, workload): golden_fingerprint(level, workload)
            for level in LEVELS for workload in WORKLOAD_NAMES
        },
        "samples": {
            _sample_key(level, workload, structure):
                sample_fingerprint(level, workload, structure)
            for level in SAMPLE_LEVELS for workload in SAMPLE_WORKLOADS
            for structure in SAMPLE_STRUCTURES
        },
    }


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_whole_registry(fixture):
    assert set(fixture["golden"]) == {
        _golden_key(level, workload)
        for level in LEVELS for workload in WORKLOAD_NAMES
    }


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_golden_run_fingerprint(fixture, level, workload):
    expected = fixture["golden"][_golden_key(level, workload)]
    assert golden_fingerprint(level, workload) == expected


@pytest.mark.parametrize("structure", SAMPLE_STRUCTURES)
@pytest.mark.parametrize("workload", SAMPLE_WORKLOADS)
@pytest.mark.parametrize("level", SAMPLE_LEVELS)
def test_fault_sample_fingerprint(fixture, level, workload, structure):
    expected = fixture["samples"][_sample_key(level, workload, structure)]
    records, cache = sample_campaign(level, workload, structure)
    assert [[r.fclass.value, r.detail, r.sim_cycles, r.replay_cycles]
            for r in records] == expected
    # A warm seek resumes the last in-flight waypoint at or before the
    # instant: it replays at most one waypoint spacing, plus the drain
    # that ends the segment when the instant falls in its window.
    for record in records:
        k = cache.boundary_at_or_before(record.fault.cycle)
        drain = (cache.cycles[k + 1] - cache.stops[k + 1]
                 if k + 1 < cache.count else 0)
        assert record.replay_cycles <= cache.waypoint_spacing + drain, (
            record)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
