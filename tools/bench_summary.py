#!/usr/bin/env python3
"""Collect benchmark artifacts into a machine-readable perf trajectory.

Reads the rendered text artifacts under ``benchmarks/results/*.txt``
(written by ``make bench`` / ``make test``) and distills their headline
numbers into one JSON file::

    python tools/bench_summary.py [--out BENCH_4.json]

Schema: ``{benchmark name: {metric: value}}`` -- benchmark names are
the artifact basenames, metrics are flat numeric values (counts,
ratios, percentages).  Keys are sorted and the output carries no
timestamps, so regenerating from unchanged artifacts is diff-free.
The file is the PR-over-PR perf baseline future sessions compare
against (``make bench-json``; uploaded as a CI artifact).

Only artifacts present on disk contribute, and only those a parser
extracts at least one metric from: an artifact without one (no parser,
or a parser that finds nothing) adds no empty series.
"""

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
DEFAULT_OUT = REPO_ROOT / "BENCH_4.json"

_FLOAT = r"([0-9]+(?:\.[0-9]+)?)"


def _chart_series_means(text):
    """Mean per-series value of a grouped bar chart artifact.

    Chart lines look like ``  GeFIN            9.4% ####``; groups are
    introduced by ``workload:`` header lines.
    """
    series = {}
    for match in re.finditer(rf"^  (\S[^\n]*?)\s+{_FLOAT}%", text,
                             re.MULTILINE):
        series.setdefault(match.group(1).strip(), []).append(
            float(match.group(2)))
    return {
        f"{name} mean unsafeness %": round(sum(vals) / len(vals), 3)
        for name, vals in series.items() if vals
    }


def _search_metrics(text, patterns):
    """Apply ``{metric: regex}`` over ``text``; keep numeric group 1."""
    out = {}
    for metric, pattern in patterns.items():
        match = re.search(pattern, text)
        if match:
            out[metric] = float(match.group(1))
    return out


def parse_prune_speedup(text):
    out = _search_metrics(text, {
        "samples": rf"samples={_FLOAT}",
        "simulated run reduction x":
            rf"{_FLOAT}x fewer \(deterministic\)",
    })
    match = re.search(
        rf"combined: {_FLOAT} -> {_FLOAT} simulated runs", text)
    if match:
        out["simulated runs off"] = float(match.group(1))
        out["simulated runs dead"] = float(match.group(2))
    for series in ("GeFIN", "RTL"):
        match = re.search(
            rf"{series}\s+prune=dead:\s+{_FLOAT} simulated"
            rf" runs of {_FLOAT} \({_FLOAT} pruned, {_FLOAT}x fewer\)",
            text)
        if match:
            out[f"{series} pruned"] = float(match.group(3))
            out[f"{series} reduction x"] = float(match.group(4))
    return out


def parse_static_prune(text):
    out = _search_metrics(text, {
        "samples": rf"samples={_FLOAT}",
        "combined static_prune_rate %":
            rf"combined static_prune_rate: {_FLOAT}% \(deterministic\)",
    })
    for series in ("ArchEmu", "RTL"):
        match = re.search(
            rf"{series}\s+prune=static:\s+{_FLOAT} simulated"
            rf" runs of {_FLOAT} \({_FLOAT}"
            rf" pruned, static_prune_rate {_FLOAT}%\)",
            text)
        if match:
            out[f"{series} pruned"] = float(match.group(3))
            out[f"{series} static_prune_rate %"] = float(match.group(4))
    return out


def parse_warmstart_speedup(text):
    return _search_metrics(text, {
        "samples": rf"samples={_FLOAT}",
        "cold faulty-phase cycles":
            rf"cold-start \(jobs=1\):\s+{_FLOAT} faulty-phase",
        "warm faulty-phase cycles":
            rf"warm-start \(jobs=1\):\s+{_FLOAT} faulty-phase",
        "cycle speedup x": rf"speedup: {_FLOAT}x simulated cycles",
    })


def parse_batch_speedup(text):
    return _search_metrics(text, {
        "samples": rf"samples={_FLOAT}",
        "lanes": rf"lanes={_FLOAT}",
        "scalar faulty-phase cycles":
            rf"scalar \(lanes=1\):\s+{_FLOAT} faulty-phase",
        "batched stepped cycles":
            rf"batched \(lanes=\d+\):\s+{_FLOAT} stepped",
        "cycle speedup x": rf"speedup: {_FLOAT}x simulated cycles",
    })


def parse_decode_cache(text):
    return _search_metrics(text, {"golden-run insts": rf"insts={_FLOAT}"})


def parse_parallel_speedup(text):
    return _search_metrics(text, {
        "samples": rf"samples={_FLOAT}",
        "jobs": rf"jobs={_FLOAT}",
        "modeled speedup x":
            rf"modeled speedup \(cycle-weighted shard schedule\):"
            rf" {_FLOAT}x",
    })


def parse_store_codec(text):
    return _search_metrics(text, {
        "records": rf"records={_FLOAT}",
        "binary bytes/record": rf"binary:\s+{_FLOAT} bytes/record",
        "jsonl bytes/record": rf"jsonl:\s+{_FLOAT} bytes/record",
        "size ratio x": rf"size ratio: {_FLOAT}x smaller",
        "mmap tally peak-alloc reduction x":
            rf"peak-alloc ratio: {_FLOAT}x less",
    })


def parse_table2(text):
    """Per-column totals of a Table II artifact's ``N k`` cells: the
    deterministic cycle and instruction columns (wall-clock columns
    are not persisted)."""
    rows = [line.strip("|").split("|") for line in text.splitlines()
            if line.startswith("|")]
    totals = {}
    for row in rows[1:]:
        for header, cell in zip(rows[0], row):
            match = re.fullmatch(rf"\s*{_FLOAT} k\s*", cell)
            if match:
                name = f"{header.strip()} total k"
                totals[name] = totals.get(name, 0.0) + float(match.group(1))
    return {name: round(total, 1) for name, total in totals.items()}


#: Artifact basename -> extractor over the file's text.
PARSERS = {
    "batch_speedup.txt": parse_batch_speedup,
    "batch_rtl_speedup.txt": parse_batch_speedup,
    "prune_speedup.txt": parse_prune_speedup,
    "static_prune.txt": parse_static_prune,
    "warmstart_speedup.txt": parse_warmstart_speedup,
    "decode_cache.txt": parse_decode_cache,
    "parallel_speedup.txt": parse_parallel_speedup,
    "store_codec.txt": parse_store_codec,
    "table2.txt": parse_table2,
    "table2_arch_tier.txt": parse_table2,
    "fig1_regfile.txt": _chart_series_means,
    "fig2_l1d_pinout.txt": _chart_series_means,
    "fig3_l1d_avf.txt": _chart_series_means,
}


def collect(results_dir=RESULTS_DIR):
    summary = {}
    for path in sorted(results_dir.glob("*.txt")):
        text = path.read_text()
        parser = PARSERS.get(path.name, lambda _t: {})
        metrics = parser(text)
        if metrics:
            summary[path.stem] = dict(sorted(metrics.items()))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--results", type=pathlib.Path,
                        default=RESULTS_DIR,
                        help="artifact directory to scan")
    args = parser.parse_args(argv)
    if not args.results.is_dir():
        print(f"bench_summary: no artifact directory at {args.results} "
              f"-- run `make bench` first", file=sys.stderr)
        return 1
    summary = collect(args.results)
    args.out.write_text(json.dumps(summary, indent=2, sort_keys=True)
                        + "\n")
    metrics = sum(len(v) for v in summary.values())
    print(f"bench_summary: {len(summary)} benchmarks, {metrics} metrics"
          f" -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
