"""Wall-clock campaign benchmark: faults/s on four paper-shaped workloads.

    python3 bench/run.py [--workload W] [--seed S] [--seconds T]
                         [--rounds N] [--trace [0|1]] [--out FILE]
    python3 bench/run.py --update-expected [--workload W]

Each workload is a scenario under ``bench/workloads/`` whose ``[sweep]
seed`` list is its pool of campaign seeds.  ``--seed`` picks the run's
inputs: half of that pool, the same half for the same seed.  They
reach the program only as that sweep axis, so one round runs every
cell once per campaign seed and shares each golden run between them.

Every round runs in a fresh child process (:mod:`bench.child`) with a
fresh temporary campaign store; ``REPRO_*`` variables never reach it.
Rounds of all selected workloads interleave (W1 W2 ... W1 ...) until
each has at least ``--rounds`` rounds and ``--seconds`` of wall time.
End-to-end metrics are medians over rounds, printed with quartiles.
``--trace 1`` instead runs the per-layer pass: an untraced round as
configured, an untraced one at ``jobs = 1`` when the workload
configures more, and a traced one at ``jobs = 1``.

Every classification is checked against ``bench/expected.json``: the
class letters of every pool seed, generated with every accelerator
off.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 1 when a classification differs and 2 when the benchmark
cannot run.
"""

import argparse
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import time
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Import siblings as ``bench.*``: the script directory must not
    # shadow the standard library (``bench/trace.py``).
    sys.path[0] = str(ROOT)

from bench import stats

BENCH = ROOT / "bench"
OUT = BENCH / "out"
WORKLOADS = BENCH / "workloads"
EXPECTED = BENCH / "expected.json"

#: Every accelerator off: the configuration the oracle comes from.
REFERENCE = {"prune": "off", "lanes": 1, "jobs": 1}
#: ``setup_s`` is the median of at least this many fresh processes.
MIN_SETUPS = 15
CHILD_TIMEOUT = 150


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong result)."""


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_spec(workload):
    return WORKLOADS / f"{workload}.toml"


def load_spec(workload):
    return tomllib.loads(workload_spec(workload).read_text())


def campaign_seeds(workload, seed):
    """The run's inputs: half the workload's seed pool, the same half
    for the same ``seed``."""
    pool = load_spec(workload)["sweep"]["seed"]
    return sorted(random.Random(seed).sample(pool, len(pool) // 2))


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def child_env():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT), str(ROOT / "src")))
    return env


def make_job(workload, seeds, mode="round", **extra):
    return dict(mode=mode, spec=str(workload_spec(workload)),
                seeds=list(seeds), store_root=str(OUT), **extra)


def spawn(jobs):
    """Run child jobs concurrently; return their JSON reports.

    Each child leads its own process group, so a timeout or an
    interrupt also stops the campaign's pool workers."""
    procs = []
    try:
        for job in jobs:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "bench.child", json.dumps(job)],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, start_new_session=True))
        reports = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                last = (stderr.strip().splitlines() or ["no output"])[-1]
                raise BenchError(f"child exited {proc.returncode}: {last}")
            reports.append(json.loads(stdout.strip().splitlines()[-1]))
        return reports
    except subprocess.TimeoutExpired:
        raise BenchError(f"child ran over {CHILD_TIMEOUT} s") from None
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


# ----------------------------------------------------------------------
# the class oracle
# ----------------------------------------------------------------------

def load_expected():
    if not EXPECTED.exists():
        raise BenchError("no bench/expected.json; run --update-expected")
    return json.loads(EXPECTED.read_text())["workloads"]


def mismatches(observed, expected):
    """Faults whose class differs from the oracle, plus quarantined
    faults (``!``).  Only the observed cells are compared."""
    bad = 0
    for label, got in observed.items():
        want = expected.get(label, "")
        bad += abs(len(got) - len(want))
        bad += sum(1 for a, b in zip(got, want) if a != b or a == "!")
    return bad


def update_expected(workloads):
    """Reference passes over the whole pool, (level, workload) pairs
    split over two processes."""
    data = {"generated_with": REFERENCE, "workloads": {}}
    if EXPECTED.exists():
        data = json.loads(EXPECTED.read_text())
    for workload in workloads:
        print(f"reference pass: {workload}", flush=True)
        sequences = {}
        for report in spawn([
                make_job(workload, load_spec(workload)["sweep"]["seed"],
                         overrides=REFERENCE, shard=[k, 2])
                for k in range(2)]):
            sequences.update(report["sequences"])
        data["workloads"][workload] = sequences
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def measure(workloads, seeds, seconds, rounds):
    """Interleaved rounds, then the extra set-up-only processes
    (``seeds``: workload -> campaign seeds)."""
    done = {workload: [] for workload in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    while True:
        pending = [w for w in workloads
                   if len(done[w]) < rounds or spent[w] < seconds]
        if not pending:
            break
        for workload in pending:
            started = time.perf_counter()
            done[workload] += spawn([make_job(workload, seeds[workload])])
            spent[workload] += time.perf_counter() - started
    setups = {}
    for workload in workloads:
        setups[workload] = [r["setup_s"] for r in done[workload]]
        while len(setups[workload]) < MIN_SETUPS:
            report, = spawn([make_job(workload, seeds[workload],
                                      mode="setup")])
            setups[workload].append(report["setup_s"])
    return done, setups


def end_to_end(rounds, setups):
    return {
        "faults_per_s": stats.summarize(
            r["sampled"] / r["wall_s"] for r in rounds),
        "setup_s": stats.summarize(setups),
        "peak_rss_mb": stats.summarize(r["peak_rss_mb"] for r in rounds),
    }


def trace_pass(workload, seeds):
    """Per-layer metrics: an untraced round as configured (pool
    numbers), an untraced and a traced round at ``jobs = 1``."""
    rounds = spawn([make_job(workload, seeds)])
    if load_spec(workload).get("execution", {}).get("jobs", 1) != 1:
        rounds += spawn([make_job(workload, seeds, overrides={"jobs": 1})])
    rounds += spawn([make_job(
        workload, seeds, overrides={"jobs": 1}, resume=True,
        trace=str(OUT / f"trace-{workload}.jsonl"))])
    configured, serial, traced = rounds[0], rounds[-2], rounds[-1]
    return rounds, {name: stats.summarize([value]) for name, value
                    in per_layer(configured, serial, traced).items()}


def per_layer(configured, serial, traced):
    """Per-layer metrics from the three reports of a trace pass."""
    layers = dict(traced["layers"])
    layers.update(traced["work"])
    layers.update(traced["faults"])
    layers["store.resume_s"] = traced["resume_s"]
    pool = configured["pool"]
    layers["pool.speedup"] = pool["serial_s"] / pool["total_s"]
    layers["pool.retried"] = pool["retried"]
    layers["trace.overhead_pct"] = 100 * (
        traced["wall_s"] / serial["wall_s"] - 1)
    return layers


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def fingerprint():
    """Host and source identity for result files."""
    import platform

    import numpy

    cpu = commit = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "python": platform.python_version(), "numpy": numpy.__version__}


def print_metrics(metrics, units):
    for name, summary in metrics.items():
        print(f"  {name:<26} {summary['value']:>12.6g} "
              f"{units[name]:<10} [q1 {summary['q1']:.6g}, "
              f"q3 {summary['q3']:.6g}, n={summary['n']}]")


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=2017,
                        help="picks the run's campaign seeds (held-out "
                             "seed: 7)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="minimum wall time of rounds per workload")
    parser.add_argument("--rounds", type=int, default=1,
                        help="minimum rounds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write medians, quartiles and runs here "
                             "(input of bench/compare.py)")
    parser.add_argument("--update-expected", action="store_true",
                        help="regenerate bench/expected.json")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError("no engine sources at src/repro")
    OUT.mkdir(exist_ok=True)
    if args.update_expected:
        update_expected(workloads)
        return 0

    expected = load_expected()
    missing = [w for w in workloads if w not in expected]
    if missing:
        raise BenchError(f"no oracle for {missing}; run --update-expected")
    seeds = {w: campaign_seeds(w, args.seed) for w in workloads}
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if args.trace:
        runs, metrics = {}, {}
        for w in workloads:
            runs[w], metrics[w] = trace_pass(w, seeds[w])
    else:
        runs, setups = measure(workloads, seeds, args.seconds, args.rounds)
        metrics = {w: end_to_end(runs[w], setups[w]) for w in workloads}

    attempted = failed = 0
    report = {}
    for workload in workloads:
        rounds = runs[workload]
        sampled = sum(r["sampled"] for r in rounds)
        wrong = sum(mismatches(r["sequences"], expected[workload])
                    for r in rounds)
        attempted += sampled
        failed += wrong
        missing = units.keys() - metrics[workload].keys()
        if missing:
            raise BenchError(f"{workload}: no value for {sorted(missing)}")
        chosen = {name: metrics[workload][name] for name in units}
        probe = stats.summarize(r["probe_s"] for r in rounds)
        print(f"{workload} (campaign seeds {seeds[workload]}): "
              f"{len(rounds)} rounds, error_frac "
              f"{wrong / sampled:.4g} ({wrong}/{sampled}), host probe "
              f"{probe['value']:.3f} s")
        if any(r["work"] != rounds[0]["work"] for r in rounds):
            print("  WARNING: work counts differ between rounds")
        print_metrics(chosen, units)
        report[workload] = {
            "metrics": {name: dict(s, unit=units[name])
                        for name, s in chosen.items()},
            "work": rounds[0]["work"], "error_frac": wrong / sampled,
            "probe_s": probe,
        }
    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed, "campaign_seeds": seeds,
            "trace": args.trace, "fingerprint": fingerprint(),
            "workloads": report,
        }, indent=1) + "\n")
    single = len(workloads) == 1
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            (name if single else f"{w}.{name}"):
                {"value": s["value"], "unit": s["unit"]}
            for w, data in report.items()
            for name, s in data["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
