"""The scenario knob table: every ``[faults]``/``[execution]`` knob,
declared once.

Each :class:`Knob` row holds one knob's section and key, its default,
the one checker that validates a value and returns it in normal form,
its ``[sweep]`` position, its run-header renderer, its ``repro-study
run`` flag and the campaign hand-off keyword it feeds.  Everything
else is derived from :data:`KNOBS`:

* :class:`~repro.scenario.spec.ScenarioSpec` -- allowed keys,
  defaults, value checks, sweep axes and the knob fields of every
  :class:`~repro.scenario.spec.CellSpec`;
* ``repro-study run`` -- one flag per row that carries help text, an
  exact alias of ``--set section.key=VALUE``;
* :meth:`~repro.scenario.runner.ScenarioRunner.run_cell` -- the
  keyword arguments of ``front.campaign``;
* :func:`describe_knobs` -- the run headers of both
  ``ScenarioSpec.describe()`` and ``CampaignConfig.describe()``.

Adding a knob is one row here plus its consumer (a ``CampaignConfig``
parameter, a ``CellSpec`` field, ...).  ``tests/test_scenario.py``
fails when a ``CampaignConfig`` parameter is neither fed by a row nor
listed in :data:`CAMPAIGN_ONLY`, and when a row is missing from
DESIGN.md's spec reference.
"""

import dataclasses
import difflib
import os

from repro.errors import ScenarioError
from repro.prune import PRUNE_MODES

#: Environment override of the per-cell fault budget when a spec
#: leaves ``faults.samples`` unset.
SAMPLES_ENV = "REPRO_SFI_SAMPLES"


def suggest(key, known):
    """A did-you-mean hint for ``key`` among ``known``."""
    close = difflib.get_close_matches(str(key), [str(k) for k in known],
                                      n=1)
    if close:
        return f"did you mean {close[0]!r}?"
    return f"valid: {', '.join(sorted(str(k) for k in known))}"


# ----------------------------------------------------------------------
# checkers: (field, value) -> normal form, or ScenarioError naming field
# ----------------------------------------------------------------------

def _integer(minimum=None, optional=False):
    def check(field, value):
        if optional and value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(field, f"must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ScenarioError(field, f"must be >= {minimum}, got {value}")
        return value
    return check


def _choice(noun, values, optional=False):
    def check(field, value):
        if optional and value is None:
            return None
        if value not in values:
            raise ScenarioError(field, f"unknown {noun} {value!r}",
                                hint=suggest(value, values))
        return value
    return check


def _boolean(field, value):
    if not isinstance(value, bool):
        raise ScenarioError(field, f"must be true/false, got {value!r}")
    return value


def _window(field, value):
    if value in ("scaled", "to-end"):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(
            field, f"must be 'scaled', 'to-end' or a cycle count, "
                   f"got {value!r}")
    if value < 1:
        raise ScenarioError(field, f"window cycles must be >= 1, "
                                   f"got {value}")
    return value


def _jobs(field, value):
    """A worker count; ``"auto"``/``0`` normalize to ``None`` (one per
    CPU)."""
    if isinstance(value, bool):
        raise ScenarioError(field, f"must be a worker count or 'auto', "
                                   f"got {value!r}")
    if value in ("auto", 0, None):
        return None
    return _integer(minimum=1)(field, value)


def _seconds(field, value):
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value <= 0:
        raise ScenarioError(
            field, f"must be a positive number of seconds, got {value!r}")
    return value


def _path(field, value):
    if value is not None and not isinstance(value, str):
        raise ScenarioError(field, "must be a directory path string")
    return value


# ----------------------------------------------------------------------
# header renderers: value -> fragments (empty = elided at its default)
# ----------------------------------------------------------------------

def _parallel(value):
    """Composite ``jobs`` fragment: ``(jobs, batch_size, start_method)``.

    Serial runs (``jobs == 1``) print nothing; batch/start only
    qualify a parallel run.
    """
    jobs, batch_size, start_method = value
    if jobs == 1:
        return []
    fragments = [f"jobs={jobs or 'auto'}"]
    if batch_size is not None:
        fragments.append(f"batch={batch_size}")
    if start_method is not None:
        fragments.append(f"start={start_method}")
    return fragments


# ----------------------------------------------------------------------
# run flag help
# ----------------------------------------------------------------------

JOBS_HELP = (
    "worker processes per campaign's faulty-run phase, or 'auto' (one "
    "per CPU) (default: the spec's execution.jobs, 1 in every preset; "
    "1 = serial, deterministic baseline; per-fault classes are "
    "identical for any value, only wall time changes)"
)

LANES_HELP = (
    "faults per shared seek (repro.batch): N > 1 lets up to N faulty "
    "runs of one checkpoint segment share a golden seek, walking on "
    "from one instant to the next, at every tier; per-fault classes "
    "are bit-identical to the scalar path (default: the spec's "
    "execution.lanes)"
)

RETRIES_HELP = (
    "failed-batch attempts per fault before quarantine (default: 2): a "
    "fault whose batch crashes, hangs past its deadline or raises this "
    "many times is recorded as an incident in the store's "
    "incidents.jsonl sidecar and the campaign completes degraded; "
    "every other fault's class is unaffected"
)

PRUNE_HELP = (
    "fault pruning: 'off', 'dead' or 'static'.  'dead' (default) "
    "classifies faults whose bit is "
    "overwritten before its next read, or lies in an L1D line not yet "
    "filled, as Masked without simulating "
    "them (repro.prune, golden access trace) -- per-fault classes are "
    "identical to 'off', only cheaper; 'static' proves the same "
    "dead-interval verdicts from dataflow analysis of the program "
    "text alone (repro.staticcheck, no access trace captured; arch "
    "and rtl tiers -- elsewhere every fault simulates)"
)

STORE_HELP = (
    "root directory for on-disk campaign stores (one subdirectory per "
    "series: manifest + append-only records, flushed per fault; fresh "
    "stores use the compact binary format -- see --store-format)"
)

STORE_FORMAT_HELP = (
    "record format for fresh stores: 'binary' (default; bitpacked "
    "records.bin + strings.dat, mmap-queried) or 'jsonl' (one JSON "
    "object per fault, human-greppable).  Existing stores keep their "
    "format; `repro-study store <dir> --export jsonl` converts"
)

RESUME_HELP = (
    "load faults already completed in --store instead of re-running "
    "them; the merged result is bit-identical to an uninterrupted run"
)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Knob:
    """One ``[section] key`` of a scenario spec."""

    section: str
    key: str
    default: object
    #: ``(field, value) -> normal form``; raises :class:`ScenarioError`
    #: naming ``field``.
    check: object
    #: Position among the ``[sweep]`` knob axes (0 = not sweepable).
    sweep: int = 0
    #: Run-header renderer: ``value -> [fragments]``; ``None`` keeps
    #: the knob out of headers.
    header: object = None
    #: ``repro-study run`` flag help; the flag is ``--key`` (``_`` ->
    #: ``-``), a boolean knob's is a switch.  ``None`` = no flag.
    flag: str = None
    #: A flag value that reaches the spec verbatim, never coerced
    #: through TOML-scalar parsing (a directory named ``2024``).
    literal: bool = False
    #: The ``front.campaign`` keyword the value feeds (a
    #: ``CampaignConfig`` parameter, or the campaign's store keywords);
    #: ``None`` = consumed by the scenario layer itself.
    param: str = None

    @property
    def field(self):
        return f"{self.section}.{self.key}"

    @property
    def option(self):
        return "--" + self.key.replace("_", "-")


#: Every ``[faults]``/``[execution]`` knob, in run-header order.
KNOBS = (
    # ``None`` defers to :func:`default_samples`; ``0`` = golden-only.
    Knob("faults", "samples", None, _integer(minimum=0, optional=True),
         sweep=4, param="samples"),
    Knob("faults", "window", "scaled", _window, sweep=6,
         header=lambda v: ["window=to-end" if v is None
                           else f"window={v}cyc"],
         param="window"),
    Knob("faults", "distribution", "normal",
         _choice("distribution", ("normal", "uniform")), sweep=7,
         header=lambda v: [f"dist={v}"], param="distribution"),
    Knob("faults", "seed", 2017, _integer(), sweep=5,
         header=lambda v: [f"seed={v}"], param="seed"),
    Knob("faults", "seed_policy", "shared",
         _choice("policy", ("shared", "per-cell"))),
    Knob("execution", "warm_start", True, _boolean, sweep=3,
         header=lambda v: [] if v else ["cold-start"],
         param="warm_start"),
    Knob("execution", "prune", "dead", _choice("prune mode", PRUNE_MODES),
         sweep=1, header=lambda v: [] if v == "dead" else [f"prune={v}"],
         flag=PRUNE_HELP, param="prune_mode"),
    # Header value: ``(jobs, batch_size, start_method)``.
    Knob("execution", "jobs", 1, _jobs, sweep=2, header=_parallel,
         flag=JOBS_HELP, param="jobs"),
    Knob("execution", "batch_size", None,
         _integer(minimum=1, optional=True), param="batch_size"),
    Knob("execution", "lanes", 1, _integer(minimum=1),
         header=lambda v: [] if v in (1, None) else [f"lanes={v}"],
         flag=LANES_HELP, param="batch_lanes"),
    Knob("execution", "retries", 2, _integer(minimum=1),
         header=lambda v: [] if v in (None, 2) else [f"retries={v}"],
         flag=RETRIES_HELP, param="retries"),
    Knob("execution", "batch_timeout", None, _seconds,
         header=lambda v: [] if v is None
         else [f"batch_timeout={v:g}s"],
         param="batch_timeout"),
    Knob("execution", "store", None, _path,
         header=lambda v: [] if v is None else [f"store={v}"],
         flag=STORE_HELP, literal=True, param="store"),
    # ``None`` = binary for new stores, the existing format on resume.
    Knob("execution", "store_format", None,
         _choice("store format", ("binary", "jsonl"), optional=True),
         flag=STORE_FORMAT_HELP, param="store_format"),
    Knob("execution", "resume", False, _boolean,
         header=lambda v: ["resume"] if v else [],
         flag=RESUME_HELP, param="resume"),
    # Ablation A3: one toolchain for every level.
    Knob("execution", "same_binaries", False, _boolean),
)

#: Knob key -> row.
KNOB = {knob.key: knob for knob in KNOBS}

#: Sweepable knobs, in ``[sweep]`` listing order.
SWEEPABLE = tuple(sorted((k for k in KNOBS if k.sweep),
                         key=lambda k: k.sweep))

#: Knobs with a ``repro-study run`` flag.
RUN_FLAGS = tuple(k for k in KNOBS if k.flag)

#: ``CampaignConfig.__init__`` parameters no scenario knob feeds: the
#: observation point a cell's mode selects, front-end acceleration,
#: statistics and cache-residency tuning, and execution test hooks.
CAMPAIGN_ONLY = frozenset({
    "observation", "accelerate", "accelerate_lead", "hang_factor",
    "error_margin", "confidence", "checkpoint_interval",
    "checkpoint_bound", "early_stop", "start_method", "chaos",
})

#: Header fragments of CampaignConfig-only settings, each rendered
#: right after the named table row: ``(name, after, renderer)``.
_CAMPAIGN_HEADERS = (
    ("observation", "window", lambda v: [f"op={v}"]),
    ("chaos", "batch_timeout", lambda v: [f"chaos={v}"] if v else []),
)


def _header_order():
    order = []
    for knob in KNOBS:
        if knob.header is not None:
            order.append((knob.key, knob.header))
        order.extend((name, render)
                     for name, after, render in _CAMPAIGN_HEADERS
                     if after == knob.key)
    return tuple(order)


_HEADER = _header_order()


def parse_value(text):
    """Parse one ``--set`` (or flag) value: TOML scalar/array syntax
    when it parses, else a bare string; top-level commas split into a
    list."""
    import tomllib

    def scalar(fragment):
        try:
            return tomllib.loads(f"v = {fragment}")["v"]
        except tomllib.TOMLDecodeError:
            return fragment

    if "," in text and not text.startswith("["):
        return [scalar(part.strip()) for part in text.split(",")]
    return scalar(text)


def default_samples():
    """Sample count per cell when a spec leaves ``faults.samples`` unset.

    The Leveugle-exact size is ~4000 (reported in every result); the
    default here is wall-clock bounded and overridable with
    ``REPRO_SFI_SAMPLES``, checked like ``faults.samples``.
    """
    text = os.environ.get(SAMPLES_ENV)
    if text is None:
        return 40
    return KNOB["samples"].check(SAMPLES_ENV, parse_value(text.strip()))


def describe_knobs(head, values):
    """One run-header line: ``head`` + the rendered knob fragments.

    ``values`` maps knob keys (plus the CampaignConfig-only header
    names) to a config's current values; knobs without a renderer are
    skipped, unknown names raise so a typo cannot silently drop a knob
    from the header.
    """
    unknown = set(values) - set(KNOB) - {n for n, _, _ in _CAMPAIGN_HEADERS}
    if unknown:
        raise KeyError(f"unknown header knobs {sorted(unknown)}")
    fragments = [head]
    for name, render in _HEADER:
        if name in values:
            fragments.extend(render(values[name]))
    return ", ".join(fragments)
