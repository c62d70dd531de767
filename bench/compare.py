"""Compare result files: ``python3 bench/compare.py A.json B.json...``

Each file is written by ``bench/run.py --out``.  Every file after the
first is compared with the first (the baseline): one row per workload
and end-to-end metric with each side's median and quartiles, and a
verdict against the metric's bound from ``BENCHMARK.json``:

* ``within-bound`` -- the medians differ by no more than the bound;
* ``regressed`` / ``improved`` -- worse / better by more than the bound;
* ``unresolved`` -- either side's spread (interquartile distance over
  the median) is wider than the bound, so the difference cannot be
  told from noise, unless every run of one side reads better than every
  run of the other.

A ``work.*`` count that differs between two files of the same campaign
seeds is flagged: those counts are deterministic, and a change that
only makes the host faster must leave them alone.  The exit status is
1 when anything regressed or a work count changed.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from bench import stats


def verdict(base, new, better, bound):
    """Verdict for one metric; ``base``/``new`` are the summaries a
    result file holds (``value``, ``q1``, ``q3``, ``runs``)."""
    sign = 1 if better == "higher" else -1
    gain = sign * (new["value"] - base["value"]) / abs(base["value"])
    if max(stats.spread(base), stats.spread(new)) > bound:
        # Signed so that larger always reads better.
        new_runs = [sign * v for v in new["runs"]]
        base_runs = [sign * v for v in base["runs"]]
        if min(new_runs) > max(base_runs):
            return "improved" if gain > bound else "within-bound"
        if max(new_runs) < min(base_runs):
            return "regressed" if -gain > bound else "within-bound"
        return "unresolved"
    if gain < -bound:
        return "regressed"
    if gain > bound:
        return "improved"
    return "within-bound"


def compare(base, new, metrics):
    """Rows ``(workload, metric, base, new, change, verdict)`` and the
    changed work counts ``(workload, name, base, new)``."""
    rows = []
    changed = []
    for workload, side in new["workloads"].items():
        if workload not in base["workloads"]:
            continue
        ref = base["workloads"][workload]
        for spec in metrics:
            name = spec["name"]
            if name not in side["metrics"] or name not in ref["metrics"]:
                continue
            a, b = ref["metrics"][name], side["metrics"][name]
            change = (b["value"] - a["value"]) / abs(a["value"])
            rows.append((workload, name, a, b, change,
                         verdict(a, b, spec["better"], spec["bound"])))
        if new.get("campaign_seeds", {}).get(workload) == \
                base.get("campaign_seeds", {}).get(workload):
            for key in sorted(ref["work"].keys() | side["work"].keys()):
                if ref["work"].get(key) != side["work"].get(key):
                    changed.append((workload, key, ref["work"].get(key),
                                    side["work"].get(key)))
    return rows, changed


def _fmt(summary):
    return (f"{summary['value']:.4g} "
            f"[{summary['q1']:.4g}, {summary['q3']:.4g}]")


def main(argv):
    if len(argv) < 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    base_path, *others = argv[1:]
    base = json.loads(pathlib.Path(base_path).read_text())
    failed = False
    for path in others:
        new = json.loads(pathlib.Path(path).read_text())
        rows, changed = compare(base, new, metrics)
        print(f"{base_path} -> {path}")
        print(f"  {'workload':<15} {'metric':<13} {'base median [q1, q3]':<28}"
              f" {'new median [q1, q3]':<28} {'change':>8}  verdict")
        for workload, name, a, b, change, result in rows:
            print(f"  {workload:<15} {name:<13} {_fmt(a):<28} "
                  f"{_fmt(b):<28} {100 * change:>+7.1f}%  {result}")
            failed |= result == "regressed"
        for workload, key, a, b in changed:
            print(f"  WORK CHANGED {workload} {key}: {a} -> {b}")
        failed |= bool(changed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
