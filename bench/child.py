"""One benchmark child process: ``python -m bench.child JOB``.

``JOB`` is a JSON object.  ``mode`` is ``"setup"`` (time the set-up and
exit) or ``"round"`` (set up, run the scenario once, report).  The
other keys:

* ``spec`` -- scenario TOML path; ``seeds`` -- the campaign seeds, run
  as a ``[sweep] seed`` axis (the only way seeds reach the program);
* ``overrides`` -- ``[execution]`` keys to replace (``jobs``, ``lanes``,
  ``prune``);
* ``shard`` -- ``[k, n]``: run only the cells of every n-th (level,
  workload) pair, starting at the k-th (the reference pass splits the
  grid over two processes without splitting a shared golden run);
* ``trace`` -- a JSONL path: run traced and write the spans there;
* ``resume`` -- afterwards, time a ``resume = true`` re-run over the
  completed stores;
* ``store_root`` -- where the round's temporary stores live.

The child prints one JSON line and exits 0, or exits nonzero.
"""

import time

STARTED = time.perf_counter()

import json
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import tomllib

from bench import stats, trace

#: One letter per fault class; ``!`` marks a quarantined fault.
LETTERS = {"masked": "M", "sdc": "S", "due": "D", "hang": "H",
           "mismatch": "X", "latent": "L"}
QUARANTINED = "!"

#: Pure-Python work the host-speed probe times (~0.2 s on a 2-vCPU
#: Xeon container).
PROBE_ITERATIONS = 3_000_000


def setup(job, store=None):
    """Import the engine, validate the spec and assemble every
    (level, workload) pair of its grid -- what ``setup_s`` times."""
    from repro import ScenarioSpec
    from repro.sim.registry import create_frontend

    path = pathlib.Path(job["spec"])
    mapping = tomllib.loads(path.read_text())
    mapping.setdefault("sweep", {})["seed"] = job["seeds"]
    execution = mapping.setdefault("execution", {})
    execution.update(job.get("overrides", {}))
    if store is not None:
        execution["store"] = store
    spec = ScenarioSpec.from_mapping(mapping, source=path.name)
    for level, workload in sorted({(cell.level, cell.workload)
                                   for cell in spec.cells()}):
        create_frontend(level, workload)
    return mapping, spec


def host_probe():
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


def sequence(result):
    """The cell's class letters in fault-sample order."""
    quarantined = {incident.index for incident in result.incidents}
    records = iter(result.records)
    return "".join(
        QUARANTINED if i in quarantined
        else LETTERS[next(records).fclass.value]
        for i in range(result.n + len(quarantined)))


def round_stats(results):
    """Deterministic counts and class sequences of one round."""
    records = [r for _, result in results for r in result.records]
    simulated = [r for r in records if r.simulated]
    sampled = sum(result.n + len(result.incidents)
                  for _, result in results)
    ms = [1e3 * r.wall_seconds for r in simulated]
    tail_pct, tail_ms = stats.tail_percentile(ms)
    return {
        "sampled": sampled,
        "incidents": sum(len(result.incidents) for _, result in results),
        "sequences": {cell.label(): sequence(result)
                      for cell, result in results},
        "work": {
            "work.golden_kcycles": sum(
                result.golden_cycles for _, result in results
                if result.golden_seconds > 0) / 1e3,
            "work.replay_kcycles": sum(
                r.replay_cycles for r in simulated) / 1e3,
            "work.tail_kcycles": sum(r.sim_cycles for r in simulated) / 1e3,
            "work.lane_kcycles": sum(
                result.batch_cycles for _, result in results) / 1e3,
        },
        "faults": {
            "fault.simulated": len(simulated),
            "fault.ms_p50": statistics.median(ms) if ms else 0.0,
            "fault.ms_tail": tail_ms,
            "fault.tail_pct": tail_pct,
            "fault.tail_n": len(ms),
            "prune.ratio": (len(records) - len(simulated)) / sampled
            if sampled else 0.0,
        },
        "pool": {
            "serial_s": sum(result.estimated_serial_seconds
                            for _, result in results),
            "total_s": sum(result.total_seconds for _, result in results),
            "retried": sum(result.retried_count for _, result in results),
        },
    }


def run_round(job):
    """Set up, run the scenario once (traced when asked), report."""
    from repro import ScenarioRunner, ScenarioSpec

    store_root = pathlib.Path(job.get("store_root", "bench/out"))
    store_root.mkdir(parents=True, exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=store_root)
    try:
        mapping, spec = setup(job, store)
        setup_s = time.perf_counter() - STARTED
        cells = spec.cells()
        if job.get("shard"):
            k, n = job["shard"]
            pairs = list(dict.fromkeys((c.level, c.workload)
                                       for c in cells))
            cells = [c for c in cells
                     if pairs.index((c.level, c.workload)) % n == k]
        tracer = trace.Tracer() if job.get("trace") else None
        started = time.perf_counter()
        if tracer is None:
            results = ScenarioRunner(spec).run(cells)
        else:
            with tracer:
                results = ScenarioRunner(spec).run(cells)
        wall_s = time.perf_counter() - started
        out = {"setup_s": setup_s, "wall_s": wall_s}
        out.update(round_stats(results))
        if tracer is not None:
            tracer.write(job["trace"])
            out["layers"] = trace.layer_metrics(tracer.spans)
            out["fired"] = trace.span_counts(tracer.spans)
        if job.get("resume"):
            mapping["execution"]["resume"] = True
            again = ScenarioSpec.from_mapping(mapping)
            started = time.perf_counter()
            ScenarioRunner(again).run(cells)
            out["resume_s"] = time.perf_counter() - started
    finally:
        shutil.rmtree(store, ignore_errors=True)
    out["probe_s"] = host_probe()
    out["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    return out


def main(argv):
    job = json.loads(argv[1])
    if job["mode"] == "setup":
        setup(job)
        out = {"setup_s": time.perf_counter() - STARTED}
    else:
        out = run_round(job)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
