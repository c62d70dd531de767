"""Command-line entry point: ``repro-study``.

One command launches every campaign: ``run`` executes a declarative
scenario file or a built-in preset (see DESIGN.md's "scenario layer"
section for the spec reference)::

    repro-study run scenario.toml [--set key=value] [--csv out.csv]
    repro-study run fig1 --set faults.samples=100   # built-in preset
    repro-study list                                 # valid spec values

The paper's artifacts are committed preset scenarios
(``src/repro/scenario/presets/*.toml``), and ``fig1``, ``fig2``,
``fig3``, ``headline`` and ``table2`` are argv aliases of ``run``:
``repro-study fig1 ARGS`` is ``repro-study run fig1 ARGS``.  The
remaining subcommands run no campaign grid::

    repro-study table1
    repro-study golden <workload> [--level arch|uarch|rtl]
    repro-study store <dir> [<dir> ...] [--export jsonl]
    repro-study staticcheck [<workload>] [--all]

``--level`` choices come from the backend registry
(``repro.sim.registry``): the architectural emulator (``arch``), the
microarchitectural model (``uarch``) and the RT-level model (``rtl``).

``run``'s knob flags -- ``--jobs``, ``--lanes``, ``--prune``,
``--retries``, ``--store``, ``--store-format`` and ``--resume`` -- are
generated from the knob table (:mod:`repro.scenario.knobs`), and each
is an exact alias of ``--set execution.<key>=VALUE``: same parsing, same
validation, same error naming the field (``--store``'s path alone is
taken verbatim, never TOML-coerced).  ``--jobs N|auto`` fans the
faulty runs of each campaign out over a process pool, ``--lanes N``
lets up to N faulty runs share one golden seek (``repro.batch``, every
tier), ``--prune {off,dead,static}`` picks fault pruning
-- lifetime-aware from the golden access trace (``dead``) or
capture-free from static dataflow analysis of the program text
(``static``, :mod:`repro.staticcheck`) -- and ``--store DIR`` /
``--resume`` persist every completed fault and continue an interrupted
run without repeating finished faults.  Results are independent of the
worker count, of the lane count and of interruption/resume, and
per-fault classes are independent of ``dead`` pruning -- see DESIGN.md.

Campaigns run supervised: a crashed or hung worker is respawned and its
batch retried; a fault that keeps killing workers is quarantined after
``--retries`` attempts (recorded in the store's ``incidents.jsonl``)
and the campaign completes *degraded* instead of dying.  The first
SIGINT/SIGTERM drains in-flight faults and flushes the store so
``--resume`` continues exactly where the run stopped (exit status 130);
a second signal hard-kills.  See DESIGN.md's "Failure model & recovery
semantics".
"""

import argparse
import sys

#: Subcommands that are argv aliases of ``run <preset>``.
PRESET_ALIASES = ("fig1", "fig2", "fig3", "headline", "table2")

_EPILOGS = {
    "run": """\
Runs a scenario file (TOML/JSON) or a built-in preset by name.  The
scenario declares targets (levels x workloads x structures x modes),
the fault budget, execution knobs and optional sweep axes; `--set`
overrides any spec key from the command line.  Output: each cell's
summary table (plus the preset's figure/headline rendering when the
scenario carries a [present] block); `--csv` exports the ResultSet.

The presets fig1, fig2, fig3, headline and table2 are also
subcommands of their own: `repro-study fig1 ARGS` is `repro-study run
fig1 ARGS`.

examples:
  repro-study run fig1 --set faults.samples=100
  repro-study fig1 --set targets.workloads=sha,fft --jobs 4
  repro-study table2 --set present.rtl_traced=false
  repro-study run sweep.toml --set sweep.prune=off,dead --csv out.csv
  repro-study run sweep-smoke --set execution.store=runs/smoke""",
    "list": """\
Discovery for scenario authors: every value a spec can target --
registered abstraction levels, their observation modes and injectable
structures, workloads, sweepable axes and built-in presets.""",
    "table1": """\
Renders Table I: the Cortex-A9 configuration used at both abstraction
levels (pipeline geometry, cache organisation, predictor).  Static --
runs no simulation.""",
    "golden": """\
One fault-free run of a workload; prints cycles, instructions, cache
and predictor statistics and the program output.  Useful to sanity-check
a workload/toolchain/simulator combination before a campaign.  The
arch level (the emulator tier) is the cheapest pre-run path: no
pipeline or cache model, cycle counts are an instruction-count proxy.

examples:
  repro-study golden sha --level rtl
  repro-study golden sha --level arch""",
    "store": """\
Summarizes one or more on-disk campaign stores (written by campaign
subcommands with --store): per-store completion, class tallies and the
recorded provenance.  Reads manifests and intact records only -- a
store whose campaign was killed mid-fault is still summarized.  Binary
stores (format 2, the default) are tallied straight off the mmap;
JSONL stores (format 1) are parsed.  `--export jsonl` prints one
store's records as JSONL on stdout -- the debug view of a binary store.

examples:
  repro-study fig1 --set faults.samples=100 --store runs/fig1 --jobs 4
  repro-study store runs/fig1/*
  repro-study store runs/fig1/uarch-sha-regfile-pinout --export jsonl""",
    "staticcheck": """\
Lints workload binaries with the static dataflow engine
(repro.staticcheck): registers read before any path defines them,
blocks unreachable from the entry point, and stores no path ever
reads.  Known-intentional findings (the calling-convention prologue
pushes) are waived inline and marked; anything unwaived fails the
command (exit 1), which makes it a CI gate over the workload registry.
Static -- assembles each workload, runs no simulation.

examples:
  repro-study staticcheck --all
  repro-study staticcheck stringsearch""",
}


# ----------------------------------------------------------------------
# scenario plumbing
# ----------------------------------------------------------------------

def _resolve_scenario(ref):
    """A scenario argument: a file path (has a suffix or a separator)
    or a preset name."""
    import pathlib

    from repro.scenario.presets import preset_path

    path = pathlib.Path(ref)
    if path.suffix or "/" in ref or path.exists():
        return path
    return preset_path(ref)


def _progress_cell(done, total, cell, _result):
    print(f"  [{done}/{total}] {cell.label()} done", file=sys.stderr)


def _run_scenario(spec):
    """Print the run header, execute the grid, return the ResultSet."""
    from repro.scenario.runner import ScenarioRunner

    print(f"# {spec.describe()}", file=sys.stderr)
    resultset = ScenarioRunner(spec, progress=_progress_cell).run()
    _warn_degraded(resultset)
    return resultset


def _warn_degraded(resultset):
    """One stderr line per degraded campaign: quarantined faults are
    excluded from the statistics, which the tables alone don't shout."""
    for cell, result in resultset:
        if getattr(result, "degraded", False):
            print(f"# DEGRADED {cell.label()}: "
                  f"{len(result.incidents)} fault(s) quarantined "
                  f"(see incidents.jsonl in the cell's store)",
                  file=sys.stderr)


def _render_headline(spec, resultset):
    """The headline preset's rendering: one cross-level comparison
    table per [present.comparisons] entry, then the wall-clock
    accounting over every campaign in [present.series] order."""
    from repro.analysis.report import render_table, speedup_table
    from repro.core.figures import comparisons_from_resultset

    comparisons = comparisons_from_resultset(resultset, spec.present)
    for name, comparison in comparisons.items():
        print(render_table(
            ("workload", "GeFIN", "RTL", "delta (pp)", "delta (rel)"),
            comparison.rows(),
            title=f"Cross-level delta: {name}",
        ))
        print()
    campaigns = [
        result
        for series in spec.present.get("series", [])
        for _, result in resultset.where(**{
            axis: series[axis]
            for axis in ("level", "mode", "structure") if axis in series
        })
    ]
    print(speedup_table(
        campaigns,
        title=f"Campaign wall clock (jobs={spec.jobs or 'auto'})",
    ))


def _render_table2(spec):
    """The table2 preset renders through the dedicated throughput
    measurement (paired traced-RTL vs GeFIN golden runs), not the
    campaign grid."""
    from repro.core.tables import render_table2, table2_rows

    rows, average = table2_rows(
        spec.workloads, rtl_traced=spec.present.get("rtl_traced", True))
    print(render_table2(rows, average))


def _render_scenario(spec, resultset):
    """Dispatch on the spec's [present] block; always end with the
    per-cell table for sweeps/plain scenarios."""
    kind = spec.present.get("kind")
    if kind == "figure":
        from repro.core.figures import chart_from_resultset

        print(chart_from_resultset(resultset, spec.present))
    elif kind == "headline":
        _render_headline(spec, resultset)
    else:
        print(resultset.table(
            title=spec.title or f"Scenario: {spec.name}"))


def _run_flag_overrides(args):
    """The run subcommand's knob flags as --set pairs (applied before
    --set, so an explicit --set wins).  A flag is an exact alias of
    ``--set section.key=VALUE``; a literal knob's value (``--store``)
    goes as a pre-split pair, so it reaches the spec verbatim instead of
    through TOML-scalar coercion (see parse_overrides)."""
    from repro.scenario.knobs import RUN_FLAGS

    overrides = []
    for knob in RUN_FLAGS:
        value = getattr(args, knob.key)
        if value is None or value is False:  # unset (or a False switch)
            continue
        if knob.literal:
            overrides.append(((knob.section, knob.key), value))
        else:
            overrides.append(f"{knob.field}={value}")
    return overrides


def _load_run_spec(args):
    """The validated spec a parsed ``run`` command line describes."""
    from repro.scenario.spec import load_scenario

    return load_scenario(_resolve_scenario(args.scenario),
                         overrides=_run_flag_overrides(args)
                         + (args.set or []))


def _cmd_run(args):
    spec = _load_run_spec(args)
    if spec.present.get("kind") == "table2":
        if args.csv:
            raise SystemExit(
                "repro-study: --csv is not supported for table2-kind "
                "scenarios (throughput is measured outside the "
                "campaign grid)")
        print("# table2 scenario: paired golden throughput runs; "
              "faults/execution knobs do not apply", file=sys.stderr)
        _render_table2(spec)
        return
    resultset = _run_scenario(spec)
    _render_scenario(spec, resultset)
    if args.csv:
        import pathlib

        out = pathlib.Path(args.csv)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(resultset.to_csv())
        print(f"# wrote {len(resultset)} cells to {out}",
              file=sys.stderr)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_list(_args):
    from repro.scenario.presets import preset_names, preset_path
    from repro.scenario.spec import SWEEP_AXES, load_mapping
    from repro.sim import registry
    from repro.staticcheck import static_prune_available
    from repro.workloads.registry import (
        WORKLOAD_DESCRIPTIONS,
        WORKLOAD_NAMES,
    )

    print("abstraction levels (targets.levels / sweep.level):")
    for spec in registry.levels():
        sim_class = spec.simulator_class()
        tag = ("  [static-prunable]"
               if static_prune_available(spec.name) else "")
        print(f"  {spec.name:<14} {spec.description}{tag}")
        modes = sorted(spec.frontend_class().MODES)
        structures = sorted(sim_class.INJECTABLE)
        print(f"  {'':<14} modes: {', '.join(modes)}")
        print(f"  {'':<14} structures: {', '.join(structures)}")
    print()
    print("workloads (targets.workloads, or \"all\"):")
    for name in WORKLOAD_NAMES:
        print(f"  {name:<14} {WORKLOAD_DESCRIPTIONS[name]}")
    print()
    print("presets (repro-study run <name>):")
    for name in preset_names():
        meta = load_mapping(preset_path(name)).get("scenario", {})
        print(f"  {name:<14} {meta.get('title', '')}")
    print()
    print(f"sweep axes ([sweep]): {', '.join(SWEEP_AXES)}")


def _cmd_table1(_args):
    from repro.core.tables import render_table1

    print(render_table1())


def _cmd_store(args):
    if args.export:
        from repro.injection.store import CampaignStore

        if len(args.stores) != 1:
            raise SystemExit(
                "repro-study: --export takes exactly one store "
                "directory")
        store = CampaignStore(args.stores[0])
        store.manifest()  # fail early on a non-store path
        for line in store.export_jsonl():
            print(line)
        return
    from repro.analysis.report import store_table

    print(store_table(args.stores, title="Campaign stores"))


def _cmd_staticcheck(args):
    from repro.staticcheck import lint_workload
    from repro.workloads.registry import WORKLOAD_NAMES

    if args.workload is None and not args.all:
        raise SystemExit(
            "repro-study: staticcheck needs a workload name or --all")
    names = WORKLOAD_NAMES if args.all else (args.workload,)
    unwaived = 0
    for name in names:
        findings = lint_workload(name)
        shown = findings if args.waived else \
            [f for f in findings if not f.waived]
        tally = (f"{len(findings)} finding(s), "
                 f"{sum(1 for f in findings if f.waived)} waived")
        print(f"{name}: {tally}" if findings else f"{name}: clean")
        for finding in shown:
            tag = " [waived]" if finding.waived else ""
            print(f"  {finding.addr:#06x} {finding.kind} "
                  f"{finding.subject}: {finding.message}{tag}")
        unwaived += sum(1 for f in findings if not f.waived)
    if unwaived:
        raise SystemExit(
            f"repro-study: {unwaived} unwaived finding(s)")


def _cmd_golden(args):
    from repro.sim import registry

    front = registry.create_frontend(args.level, args.workload)
    sim = front.golden_run()
    stats = sim.stats()
    print(f"workload      : {args.workload} ({args.level})")
    print(f"status        : exited={sim.exited} code={sim.exit_code}")
    print(f"cycles        : {stats['cycles']}")
    print(f"instructions  : {stats['instructions']} (IPC "
          f"{stats['ipc']:.2f})")
    print(f"L1D miss/hit  : {stats['l1d_misses']}/{stats['l1d_hits']}")
    print(f"mispredicts   : {stats['mispredicts']}")
    print(f"output        : {sim.output!r}")


def _add_parser(sub, name, help_text):
    return sub.add_parser(
        name,
        help=help_text,
        description=help_text,
        epilog=_EPILOGS[name],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def build_parser():
    """The ``repro-study`` argument parser (every subcommand)."""
    from repro import __version__
    from repro.scenario.knobs import RUN_FLAGS

    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"repro-study {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = _add_parser(sub, "run",
                        "run a declarative scenario file or preset")
    p_run.add_argument("scenario",
                       help="scenario file (.toml/.json) or preset name "
                            "(see `repro-study list`)")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a spec key (dotted path), e.g. "
                            "--set faults.samples=100 "
                            "--set sweep.prune=off,dead")
    p_run.add_argument("--csv", default=None, metavar="PATH",
                       help="write the ResultSet summary CSV "
                            "(one row per cell) to PATH")
    for knob in RUN_FLAGS:
        if isinstance(knob.default, bool):
            # a switch: --resume is --set execution.resume=true
            p_run.add_argument(knob.option, action="store_const",
                               const="true", help=knob.flag)
        else:
            p_run.add_argument(knob.option, help=knob.flag)
    _add_parser(sub, "list",
                "valid scenario spec values (levels, workloads, ...)")
    _add_parser(sub, "table1", "Table I: simulated CPU configuration")
    p_store = _add_parser(sub, "store",
                          "summarize on-disk campaign stores")
    p_store.add_argument("stores", nargs="+",
                         help="store directories (manifest + binary or "
                              "JSONL records)")
    p_store.add_argument("--export", choices=("jsonl",), default=None,
                         help="print one store's records as JSONL on "
                              "stdout (debug export; exactly one "
                              "store directory)")
    from repro.sim.registry import level_names

    p_golden = _add_parser(sub, "golden",
                           "one fault-free run of a workload")
    p_golden.add_argument("workload", help="workload name (see README.md)")
    p_golden.add_argument("--level", choices=level_names(),
                          default="uarch",
                          help="abstraction level to simulate at "
                               "(default: uarch)")
    p_static = _add_parser(sub, "staticcheck",
                           "lint workload binaries with the static "
                           "dataflow engine")
    p_static.add_argument("workload", nargs="?", default=None,
                          help="workload name (see `repro-study list`)")
    p_static.add_argument("--all", action="store_true",
                          help="lint every registered workload")
    p_static.add_argument("--waived", action="store_true",
                          help="also print findings covered by the "
                               "inline waiver list")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in PRESET_ALIASES:
        argv.insert(0, "run")
    args = build_parser().parse_args(argv)
    from repro.errors import (
        CampaignInterrupted,
        ExecutionError,
        ScenarioError,
    )
    from repro.injection.store import StoreError

    try:
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "list":
            _cmd_list(args)
        elif args.command == "table1":
            _cmd_table1(args)
        elif args.command == "golden":
            _cmd_golden(args)
        elif args.command == "store":
            _cmd_store(args)
        elif args.command == "staticcheck":
            _cmd_staticcheck(args)
    except (StoreError, ScenarioError, ExecutionError) as exc:
        # Spec, store and execution-knob problems (bad field, unknown
        # preset, refusal to overwrite completed records, identity
        # mismatch, misspelled start method) are user-facing
        # conditions, not tracebacks.
        raise SystemExit(f"repro-study: {exc}")
    except CampaignInterrupted as exc:
        # Graceful shutdown: the store (if any) was flushed and is
        # resumable.  128 + SIGINT, the conventional interrupt status.
        print(f"repro-study: interrupted -- {exc}", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
