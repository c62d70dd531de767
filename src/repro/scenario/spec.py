"""Declarative scenario specifications.

A *scenario* is the experiment a campaign grid runs: which abstraction
levels, workloads, structures and observation modes to target, what
fault budget to spend, how to execute (parallelism, pruning,
persistence), and optionally which extra knob axes to sweep.  The spec
is plain data -- loadable from TOML or JSON, strict about every key and
value, composable into a deterministic campaign grid -- and completely
separate from execution (:mod:`repro.scenario.runner`), the way
GeFIN-style industrial flows separate campaign specification from the
injection engine.

File layout (all sections optional unless noted)::

    [scenario]                  # metadata
    name = "fig1"
    title = "Figure 1: ..."

    [targets]                   # grid-axis defaults
    levels = ["uarch", "rtl"]
    workloads = "all"           # or an explicit list
    structures = ["regfile"]
    modes = ["pinout"]

    [[grid]]                    # rectangular sub-grids (union; each
    levels = ["uarch"]          # block inherits unset axes from
    modes = ["pinout-notimer"]  # [targets])

    [faults]
    samples = 40                # default: REPRO_SFI_SAMPLES or 40
    seed = 2017
    window = "scaled"           # "scaled" | "to-end" | cycles
    distribution = "normal"
    seed_policy = "shared"      # or "per-cell" (deterministic derive)

    [execution]
    jobs = 1                    # or "auto" (one per CPU)
    prune = "dead"              # "off" | "dead" | "static"
    store = "runs/fig1"
    store_format = "binary"     # fresh-store record format (default)
    resume = true

    [sweep]                     # extra grid axes (cartesian product)
    prune = ["off", "dead"]

    [present]                   # optional rendering block (presets)
    kind = "figure"             # "figure" | "headline" | "table2"

Validation raises :class:`ScenarioError` -- one actionable error naming
the offending field -- for unknown keys, bad level/workload/structure/
mode names, invalid values and conflicting sweep axes.
"""

import dataclasses
import itertools
import json
import pathlib
import zlib

from repro.errors import ScenarioError
from repro.scenario.knobs import (
    KNOB,
    KNOBS,
    SWEEPABLE,
    default_samples,
    describe_knobs,
    parse_value,
    suggest,
)
from repro.sim import registry as sim_registry
from repro.workloads.registry import WORKLOAD_NAMES


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ScenarioError(section, f"must be a table/object, got "
                                     f"{type(mapping).__name__}")
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"{section}.{key}", "unknown key",
                                hint=suggest(key, allowed))


def _string_tuple(field, value, *, allow_all=None):
    """A list-of-names field; a bare string means a one-element list
    (``"all"`` expands to ``allow_all`` when provided)."""
    if isinstance(value, str):
        if allow_all is not None and value == "all":
            return tuple(allow_all)
        value = [value]
    if (not isinstance(value, (list, tuple)) or not value
            or not all(isinstance(v, str) for v in value)):
        raise ScenarioError(field, "must be a non-empty list of names")
    return tuple(value)


#: Target axes: sweep name -> section key in [targets] / [[grid]].
_TARGET_AXES = {
    "level": "levels",
    "workload": "workloads",
    "structure": "structures",
    "mode": "modes",
}

SWEEP_AXES = tuple(_TARGET_AXES) + tuple(k.key for k in SWEEPABLE)

#: Knob sections of a spec mapping.
_KNOB_SECTIONS = ("faults", "execution")


@dataclasses.dataclass(frozen=True)
class GridBlock:
    """One rectangular sub-grid of the target matrix."""

    levels: tuple = ()
    workloads: tuple = ()
    structures: tuple = ()
    modes: tuple = ()
    #: Axes this block set explicitly (vs inherited from [targets]) --
    #: what sweep-axis conflict detection checks against.
    explicit: frozenset = frozenset()


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One fully-resolved campaign of the expanded grid: the four grid
    coordinates plus the per-cell knob values (knob table rows of the
    same name)."""

    index: int
    level: str
    workload: str
    structure: str
    mode: str
    samples: int
    seed: int
    window: object          # "scaled" | "to-end" | int cycles
    distribution: str
    prune: str
    jobs: object            # int | None (auto)
    batch_size: object
    warm_start: bool
    retries: int
    batch_timeout: object
    lanes: int
    #: Sweep coordinates of this cell: ``(axis, value)`` pairs in the
    #: sweep's declaration order (empty without a sweep).
    axes: tuple = ()

    def coordinate(self, axis):
        """The cell's value on any axis (grid axis, knob or sweep).

        Only dataclass fields and sweep coordinates resolve -- method
        names (``label``, ...) raise like any unknown axis, so a typo'd
        ``where()`` filter fails loudly instead of matching nothing.
        """
        if axis != "axes" and axis in self.__dataclass_fields__:
            return getattr(self, axis)
        for name, value in self.axes:
            if name == axis:
                return value
        raise KeyError(axis)

    def label(self):
        """Human-readable cell id: ``level/workload/structure/mode``
        plus any sweep coordinates."""
        base = f"{self.level}/{self.workload}/{self.structure}/{self.mode}"
        extra = [f"{k}={v}" for k, v in self.axes
                 if k not in _TARGET_AXES]
        return base + (f"[{','.join(extra)}]" if extra else "")

    def store_name(self):
        """Per-cell store subdirectory.  Matches the historical
        ``level-workload-structure-mode`` naming exactly when no scalar
        sweep axis is active, so a preset's cell stores keep the
        directory names every earlier release wrote."""
        name = f"{self.level}-{self.workload}-{self.structure}-{self.mode}"
        for key, value in self.axes:
            if key not in _TARGET_AXES:
                name += f"-{key}={value}"
        return name

    def identity(self):
        """The hashable cell identity the runner's result cache keys
        on: every field but ``index`` (so the same cell reached through
        two grids shares one result) and the sweep coordinates (already
        folded into the field values)."""
        return tuple(getattr(self, name) for name in _IDENTITY_FIELDS)


_IDENTITY_FIELDS = tuple(f.name for f in dataclasses.fields(CellSpec)
                         if f.name not in ("index", "axes"))

#: Knobs every cell carries its own value of (``CellSpec`` fields).
CELL_KNOBS = tuple(k for k in KNOBS if k.key in _IDENTITY_FIELDS)


def _derive_seed(base_seed, cell_key):
    """Deterministic per-cell seed: stable across runs, machines and
    Python versions (crc32 of the canonical coordinate string)."""
    return (base_seed + zlib.crc32(cell_key.encode())) % (2 ** 31)


class ScenarioSpec:
    """A validated scenario: targets x budget x execution (x sweep)."""

    _SECTION_KEYS = ("scenario", "targets", "grid", "faults", "sweep",
                     "execution", "present")
    _TARGET_KEYS = ("levels", "workloads", "structures", "modes")

    def __init__(self, *, name="scenario", title="", blocks=(),
                 workloads=None, sweep=(), present=None,
                 _explicit=frozenset(), **knobs):
        """``knobs`` are raw knob-table values by key (unset = the
        table default); each is checked once, here."""
        unknown = set(knobs) - set(KNOB)
        if unknown:
            raise TypeError(f"unknown scenario knobs {sorted(unknown)}")
        self.name = name
        self.title = title
        self.workloads = tuple(workloads) if workloads is not None \
            else WORKLOAD_NAMES
        self.blocks = tuple(blocks) or (GridBlock(),)
        for knob in KNOBS:
            setattr(self, knob.key, knob.check(
                knob.field, knobs.get(knob.key, knob.default)))
        #: ``(axis, (values...))`` pairs in declaration order.
        self.sweep = tuple(sweep)
        self.present = dict(present or {})
        #: dotted keys explicitly present in the source mapping
        #: (sweep-conflict detection).
        self._explicit = frozenset(_explicit)
        self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_mapping(cls, data, source="scenario"):
        """Build and validate a spec from a plain mapping (parsed TOML
        or JSON).  Unknown keys and bad values raise
        :class:`ScenarioError` naming the field."""
        _check_keys(source, data, cls._SECTION_KEYS)
        meta = data.get("scenario", {})
        _check_keys("scenario", meta, ("name", "title"))
        targets = data.get("targets", {})
        _check_keys("targets", targets, cls._TARGET_KEYS)
        knobs = {}
        for section in _KNOB_SECTIONS:
            raw = data.get(section, {})
            _check_keys(section, raw, [k.key for k in KNOBS
                                       if k.section == section])
            knobs.update(raw)
        raw_blocks = data.get("grid", [])
        if isinstance(raw_blocks, dict):
            raw_blocks = [raw_blocks]
        if not isinstance(raw_blocks, list):
            raise ScenarioError("grid", "must be an array of tables")

        explicit = {f"targets.{key}" for key in targets}
        explicit.update(KNOB[key].field for key in knobs)

        defaults = {
            "levels": _string_tuple(
                "targets.levels", targets.get("levels", ["uarch", "rtl"])),
            "workloads": _string_tuple(
                "targets.workloads", targets.get("workloads", "all"),
                allow_all=WORKLOAD_NAMES),
            "structures": _string_tuple(
                "targets.structures", targets.get("structures",
                                                  ["regfile"])),
            "modes": _string_tuple(
                "targets.modes", targets.get("modes", ["pinout"])),
        }
        blocks = []
        for b, raw in enumerate(raw_blocks):
            _check_keys(f"grid[{b}]", raw, cls._TARGET_KEYS)
            axes = {}
            for key in cls._TARGET_KEYS:
                if key in raw:
                    axes[key] = _string_tuple(
                        f"grid[{b}].{key}", raw[key],
                        allow_all=WORKLOAD_NAMES
                        if key == "workloads" else None)
                    explicit.add(f"grid.{key}")
                else:
                    axes[key] = defaults[key]
            blocks.append(GridBlock(explicit=frozenset(
                k for k in cls._TARGET_KEYS if k in raw), **axes))
        if not blocks:
            blocks = [GridBlock(explicit=frozenset(
                k for k in cls._TARGET_KEYS if k in targets), **defaults)]

        sweep = []
        raw_sweep = data.get("sweep", {})
        _check_keys("sweep", raw_sweep, SWEEP_AXES
                    + tuple(f"{a}s" for a in _TARGET_AXES))
        for key, values in raw_sweep.items():
            axis = key[:-1] if key.endswith("s") \
                and key[:-1] in _TARGET_AXES else key
            field = f"sweep.{key}"
            if not isinstance(values, (list, tuple)):
                # a bare scalar is a one-value axis (the --set path
                # cannot spell a one-element TOML array of bare words)
                values = [values]
            if not values:
                raise ScenarioError(field,
                                    "must be a non-empty list of values")
            if axis in _TARGET_AXES:
                values = _string_tuple(field, list(values))
            else:
                values = tuple(KNOB[axis].check(field, v) for v in values)
            if len(set(values)) != len(values):
                raise ScenarioError(field, "repeats a value")
            sweep.append((axis, values))

        return cls(
            name=meta.get("name", "scenario"),
            title=meta.get("title", ""),
            blocks=blocks,
            workloads=defaults["workloads"],
            sweep=sweep,
            present=data.get("present"),
            _explicit=explicit,
            **knobs,
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate(self):
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError("scenario.name", "must be a non-empty "
                                                 "string")
        if self.store_format is not None and self.store is None:
            raise ScenarioError("execution.store_format",
                                "requires execution.store")
        if self.resume and self.store is None:
            raise ScenarioError("execution.resume",
                                "requires execution.store")
        self._validate_sweep_conflicts()
        self._validate_targets()
        if self.present:
            self._validate_present()

    def _validate_sweep_conflicts(self):
        seen = set()
        for axis, _ in self.sweep:
            if axis in seen:
                raise ScenarioError(f"sweep.{axis}",
                                    "axis declared twice")
            seen.add(axis)
            if axis in _TARGET_AXES:
                key = _TARGET_AXES[axis]
                for where in (f"targets.{key}", f"grid.{key}"):
                    if where in self._explicit:
                        raise ScenarioError(
                            f"sweep.{axis}",
                            f"conflicts with {where}",
                            hint="declare the axis in one place only")
            else:
                where = KNOB[axis].field
                if where in self._explicit:
                    raise ScenarioError(
                        f"sweep.{axis}",
                        f"conflicts with {where}",
                        hint="declare the axis in one place only")

    def _validate_targets(self):
        known_levels = sim_registry.level_names()
        swept = dict(self.sweep)

        def check_levels(field, levels):
            for level in levels:
                if level not in known_levels:
                    raise ScenarioError(
                        field, f"unknown abstraction level {level!r}",
                        hint=suggest(level, known_levels))

        def check_workloads(field, workloads):
            for workload in workloads:
                if workload not in WORKLOAD_NAMES:
                    raise ScenarioError(
                        field, f"unknown workload {workload!r}",
                        hint=suggest(workload, WORKLOAD_NAMES))

        check_levels("sweep.level", swept.get("level", ()))
        check_workloads("sweep.workload", swept.get("workload", ()))
        for b, block in enumerate(self.blocks):
            check_levels(f"grid[{b}].levels", block.levels)
            check_workloads(f"grid[{b}].workloads", block.workloads)
        check_workloads("targets.workloads", self.workloads)
        # (level, mode) and (level, structure) compatibility -- resolved
        # against the registered front-end/simulator for each level.
        for level, structure, mode, field in self._level_combos():
            spec = sim_registry.get(level)
            modes = spec.frontend_class().MODES
            if mode not in modes:
                raise ScenarioError(
                    field, f"mode {mode!r} is not offered at level "
                           f"{level!r}",
                    hint=f"valid for {level}: "
                         f"{', '.join(sorted(modes))}")
            injectable = spec.simulator_class().INJECTABLE
            if self.samples != 0 and structure not in injectable:
                raise ScenarioError(
                    field, f"structure {structure!r} is not injectable "
                           f"at level {level!r}",
                    hint=f"valid for {level}: "
                         f"{', '.join(sorted(injectable))}")

    def _level_combos(self):
        """Every (level, structure, mode) combination the grid (plus a
        level/structure/mode sweep) can produce, with a field label."""
        swept = dict(self.sweep)
        for b, block in enumerate(self.blocks):
            levels = swept.get("level", block.levels)
            structures = swept.get("structure", block.structures)
            modes = swept.get("mode", block.modes)
            for level in levels:
                for structure in structures:
                    for mode in modes:
                        yield (level, structure, mode,
                               f"grid[{b}]" if len(self.blocks) > 1
                               else "targets")

    _PRESENT_KINDS = ("figure", "headline", "table2")

    def _validate_present(self):
        """A [present] block must be renderable *before* the grid
        spends hours simulating: required keys per kind, every series/
        comparison filter matching at least one grid cell, and no
        sweep (a swept grid has no single figure/headline rendering).
        """
        _check_keys("present", self.present,
                    ("kind", "title", "series", "comparisons",
                     "rtl_traced"))
        kind = self.present.get("kind")
        if kind not in self._PRESENT_KINDS:
            raise ScenarioError(
                "present.kind", f"unknown kind {kind!r}",
                hint=suggest(kind, self._PRESENT_KINDS))
        if kind == "table2":
            return
        if self.sweep:
            raise ScenarioError(
                "present.kind",
                f"kind {kind!r} cannot render a swept grid",
                hint="drop the [sweep] section or the [present] block")
        if kind == "figure" and "title" not in self.present:
            raise ScenarioError("present.title",
                                "is required for kind 'figure'")
        series = self.present.get("series", [])
        if not series:
            raise ScenarioError(
                "present.series", f"kind {kind!r} requires at least "
                                  f"one [[present.series]] entry")
        cells = self.cells()

        def check_matches(field, coords):
            matched = [
                cell for cell in cells
                if all(getattr(cell, axis) == coords[axis]
                       for axis in ("level", "mode", "structure")
                       if axis in coords)
            ]
            if not matched:
                raise ScenarioError(
                    field, f"matches no grid cell ({coords})",
                    hint="check the [targets]/[[grid]] axes")
            return matched

        series_workloads = []
        for i, entry in enumerate(series):
            _check_keys(f"present.series[{i}]", entry,
                        ("name", "level", "mode", "structure"))
            for required in ("name", "level", "mode"):
                if required not in entry:
                    raise ScenarioError(
                        f"present.series[{i}].{required}", "is required")
            matched = check_matches(f"present.series[{i}]", entry)
            series_workloads.append(
                (i, {cell.workload for cell in matched}))
        if kind == "figure":
            # The grouped bar chart indexes every series by the first
            # series' workload labels -- the sets must agree.
            _, first = series_workloads[0]
            for i, workloads in series_workloads[1:]:
                if workloads != first:
                    raise ScenarioError(
                        f"present.series[{i}]",
                        f"covers workloads {sorted(workloads)} but "
                        f"series[0] covers {sorted(first)}",
                        hint="figure series must chart the same "
                             "workload set")
        comparisons = self.present.get("comparisons", [])
        if kind == "headline" and not comparisons:
            raise ScenarioError(
                "present.comparisons",
                "kind 'headline' requires [[present.comparisons]]")
        for i, comp in enumerate(comparisons):
            _check_keys(f"present.comparisons[{i}]", comp,
                        ("name", "structure", "mode", "gefin", "rtl"))
            for required in ("name", "structure", "gefin", "rtl"):
                if required not in comp:
                    raise ScenarioError(
                        f"present.comparisons[{i}].{required}",
                        "is required")
            for side in ("gefin", "rtl"):
                _check_keys(f"present.comparisons[{i}].{side}",
                            comp[side], ("level", "mode", "structure"))
            gefin = check_matches(f"present.comparisons[{i}].gefin",
                                  comp["gefin"])
            rtl = check_matches(f"present.comparisons[{i}].rtl",
                                comp["rtl"])
            # The renderer pairs each gefin-side workload with exactly
            # one rtl-side result.
            rtl_workloads = [cell.workload for cell in rtl]
            for cell in gefin:
                if rtl_workloads.count(cell.workload) != 1:
                    raise ScenarioError(
                        f"present.comparisons[{i}].rtl",
                        f"needs exactly one cell for workload "
                        f"{cell.workload!r}, found "
                        f"{rtl_workloads.count(cell.workload)}")

    # ------------------------------------------------------------------
    # grid expansion
    # ------------------------------------------------------------------

    def resolved_samples(self):
        """The per-cell fault budget (``None`` defers to the
        environment-tunable default, as the CLI always has)."""
        if self.samples is not None:
            return self.samples
        return default_samples()

    def cells(self):
        """Expand the grid: sweep axes (outermost, declaration order)
        x grid blocks x levels x workloads x structures x modes.

        Cell order is deterministic; duplicate coordinates (e.g. two
        blocks overlapping) are dropped keeping the first occurrence.
        """
        samples = self.resolved_samples()
        sweep_names = [axis for axis, _ in self.sweep]
        sweep_values = [values for _, values in self.sweep]
        cells = []
        seen = set()
        for combo in itertools.product(*sweep_values):
            coords = dict(zip(sweep_names, combo))
            for block in self.blocks:
                levels = (coords["level"],) if "level" in coords \
                    else block.levels
                for level in levels:
                    for cell in self._block_cells(block, level, coords,
                                                  samples):
                        if cell.identity() in seen:
                            continue
                        seen.add(cell.identity())
                        cells.append(dataclasses.replace(
                            cell, index=len(cells)))
        return tuple(cells)

    def _block_cells(self, block, level, coords, samples):
        workloads = (coords["workload"],) if "workload" in coords \
            else block.workloads
        structures = (coords["structure"],) if "structure" in coords \
            else block.structures
        modes = (coords["mode"],) if "mode" in coords else block.modes
        axes = tuple(coords.items())
        # Per-cell seeds must derive only from *result-affecting*
        # coordinates -- the [faults] knobs: cells differing in
        # execution-only axes (prune, jobs, warm_start) must draw
        # identical fault samples, or the exactness/invariance
        # contracts those sweeps exist to check would compare
        # different workloads.
        seed_axes = tuple((k, v) for k, v in axes
                          if k in KNOB and KNOB[k].section == "faults")
        knobs = {knob.key: coords.get(knob.key, getattr(self, knob.key))
                 for knob in CELL_KNOBS}
        knobs["samples"] = coords.get("samples", samples)
        for workload in workloads:
            for structure in structures:
                for mode in modes:
                    seed = knobs["seed"]
                    if self.seed_policy == "per-cell":
                        seed = _derive_seed(
                            seed, f"{level}/{workload}/{structure}/"
                                  f"{mode}/{seed_axes}")
                    yield CellSpec(
                        index=-1, level=level, workload=workload,
                        structure=structure, mode=mode,
                        **dict(knobs, seed=seed), axes=axes)

    # ------------------------------------------------------------------

    def describe(self):
        """One run-header line (shared knob table; printed by the CLI)."""
        cells = self.cells()
        head = (f"scenario {self.name}: {len(cells)} cells x "
                f"{self.resolved_samples()} faults")
        if self.sweep:
            axes = " x ".join(f"{axis}[{len(values)}]"
                              for axis, values in self.sweep)
            head += f", sweep {axes}"
        values = {knob.key: getattr(self, knob.key) for knob in KNOBS}
        modes = {(cell.level, cell.mode) for cell in cells}
        if not any(sim_registry.get(level).frontend_class().MODES[mode][1]
                   for level, mode in modes):
            # No cell is windowed: every faulty run goes to program end.
            values["window"] = None
        elif self.window == "scaled":
            from repro.injection.campaign import SCALED_WINDOW

            values["window"] = SCALED_WINDOW
        elif self.window == "to-end":
            values["window"] = None
        values["jobs"] = (self.jobs, self.batch_size, None)
        return describe_knobs(head, values)

    def __repr__(self):
        return (f"ScenarioSpec({self.name!r}, blocks={len(self.blocks)},"
                f" sweep={[a for a, _ in self.sweep]})")


# ----------------------------------------------------------------------
# loading and overrides
# ----------------------------------------------------------------------

def parse_overrides(pairs):
    """``["faults.samples=10", ...]`` -> nested mapping updates.

    An entry may also be a pre-parsed ``((section, key), value)``
    tuple, whose value is applied verbatim -- the CLI uses this for
    flags like ``--store`` whose values must never be coerced through
    the TOML-scalar parsing (a directory named ``2024`` is a string).
    """
    updates = []
    for pair in pairs:
        if isinstance(pair, tuple):
            path, value = pair
            updates.append((list(path), value))
            continue
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise ScenarioError(
                "--set", f"expected section.key=value, got {pair!r}")
        path = key.strip().split(".")
        if len(path) < 2:
            raise ScenarioError(
                f"--set {key.strip()}",
                "expected a dotted path like faults.samples")
        updates.append((path, parse_value(value)))
    return updates


def apply_overrides(mapping, pairs):
    """Apply ``--set section.key=value`` pairs to a raw scenario
    mapping (before validation, so bad names/values fail through the
    standard spec errors, naming the field)."""
    for path, value in parse_overrides(pairs):
        target = mapping
        for part in path[:-1]:
            node = target.setdefault(part, {})
            if not isinstance(node, dict):
                raise ScenarioError(
                    ".".join(path),
                    f"cannot override inside non-table {part!r}")
            target = node
        target[path[-1]] = value
    return mapping


def load_mapping(path):
    """Parse a scenario file to a plain mapping (TOML or JSON by
    extension)."""
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read scenario file: "
                                       f"{exc}") from None
    if path.suffix == ".json":
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ScenarioError(str(path), f"invalid JSON: {exc}") \
                from None
    if path.suffix == ".toml":
        import tomllib

        try:
            return tomllib.loads(raw.decode())
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(str(path), f"invalid TOML: {exc}") \
                from None
    raise ScenarioError(str(path),
                        "unknown scenario format (use .toml or .json)")


def load_scenario(path, overrides=()):
    """Load, override and validate a scenario file."""
    mapping = load_mapping(path)
    if overrides:
        apply_overrides(mapping, overrides)
    return ScenarioSpec.from_mapping(mapping,
                                     source=pathlib.Path(path).name)
