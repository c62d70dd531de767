"""Queryable collection of per-cell campaign results.

A :class:`ResultSet` is what :class:`repro.scenario.runner
.ScenarioRunner` returns: the expanded grid's ``(CellSpec,
CampaignResult)`` pairs in cell order, with composable filters
(:meth:`ResultSet.where`), grouping (:meth:`ResultSet.group_by`) and
direct export into the existing report tables and CSV writers.
"""


class ResultSet:
    """Ordered ``(cell, result)`` pairs with composable queries."""

    def __init__(self, items):
        self._items = tuple(items)

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __bool__(self):
        return bool(self._items)

    @property
    def cells(self):
        return tuple(cell for cell, _ in self._items)

    @property
    def results(self):
        return tuple(result for _, result in self._items)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def where(self, **coordinates):
        """Filter on any cell coordinate -- grid axes (``level=``,
        ``workload=``, ``structure=``, ``mode=``), budget/execution
        knobs (``prune=``, ``seed=``, ...) or sweep axes -- and return
        a new :class:`ResultSet`.  Filters compose::

            rs.where(level="rtl").where(prune="off")
        """
        def matches(cell):
            for axis, wanted in coordinates.items():
                try:
                    value = cell.coordinate(axis)
                except KeyError:
                    raise KeyError(
                        f"unknown cell coordinate {axis!r} "
                        f"(cell {cell.label()})") from None
                if value != wanted:
                    return False
            return True

        return ResultSet(item for item in self._items
                         if matches(item[0]))

    def one(self):
        """The single result of a fully-narrowed query (raises
        ``LookupError`` when the set holds zero or several cells)."""
        if len(self._items) != 1:
            labels = [cell.label() for cell, _ in self._items]
            raise LookupError(
                f"expected exactly one cell, got {len(self._items)}"
                f"{': ' + ', '.join(labels) if labels else ''}")
        return self._items[0][1]

    def group_by(self, *axes):
        """Group cells by one or more coordinates: returns an ordered
        ``{key_tuple: ResultSet}`` (key order = first occurrence)."""
        groups = {}
        for cell, result in self._items:
            key = tuple(cell.coordinate(axis) for axis in axes)
            groups.setdefault(key, []).append((cell, result))
        return {key: ResultSet(items) for key, items in groups.items()}

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def mean_unsafeness(self):
        """Mean of the paper's vulnerability metric over the set's
        campaigns (0.0 for an empty or golden-only set)."""
        measured = [r.unsafeness for r in self.results if r.n]
        if not measured:
            return 0.0
        return sum(measured) / len(measured)

    def total_simulated(self):
        """Faults actually simulated across the set (pruned/resumed
        faults excluded)."""
        return sum(r.simulated_count for r in self.results)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def table(self, title=None):
        """The per-cell scenario table (one row per cell)."""
        from repro.analysis.report import scenario_table

        return scenario_table(self, title=title)

    def campaign_table(self, title=None):
        """The classic per-campaign summary table over the set."""
        from repro.analysis.report import campaign_table

        return campaign_table(self.results, title=title)

    def speedup_table(self, title=None):
        """Wall-clock accounting table over the set."""
        from repro.analysis.report import speedup_table

        return speedup_table(self.results, title=title)

    def to_csv(self):
        """Summary CSV, one row per cell, with the cell coordinates
        prepended to the standard campaign columns."""
        from repro.analysis.export import results_to_csv

        return results_to_csv(self.results, cells=self.cells)

    def series(self, series_defs):
        """Shape the set like the figure renderers' dictionaries:
        ``{series_name: {workload: result}}``.

        ``series_defs`` is an iterable of mappings with ``name``,
        ``level``, ``mode`` and optional ``structure`` -- the
        ``[[present.series]]`` blocks of a preset.  Workload order
        within a series follows cell order.  A series definition must
        narrow the set to at most one cell per workload: when a sweep
        axis is left unpinned, several cells would collapse onto one
        chart point, so the ambiguity raises instead of silently
        charting whichever cell came first.
        """
        from repro.scenario.spec import ScenarioError

        shaped = {}
        for definition in series_defs:
            coords = {axis: definition[axis]
                      for axis in ("level", "mode", "structure")
                      if axis in definition}
            matched = self.where(**coords)
            by_workload = {}
            for cell, result in matched:
                if cell.workload in by_workload:
                    colliding = [c.label() for c, _ in matched
                                 if c.workload == cell.workload]
                    raise ScenarioError(
                        "present.series",
                        f"series {definition['name']!r} matches "
                        f"{len(colliding)} cells for workload "
                        f"{cell.workload!r}: {', '.join(colliding)}",
                        hint="pin the sweep axis in the series "
                             "definition or filter the ResultSet "
                             "before shaping",
                    )
                by_workload[cell.workload] = result
            shaped[definition["name"]] = by_workload
        return shaped

    def __repr__(self):
        return f"ResultSet({len(self._items)} cells)"
