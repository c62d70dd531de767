"""Scenario execution: schedule the expanded grid through the campaign
engine.

The runner owns everything a grid run can share:

* **front-ends** -- one per (level, workload): the assembled program
  and simulator configuration are reused by every cell that targets
  the pair;
* **golden payloads** -- cells whose golden-affecting knobs agree
  (same level/workload/toolchain, same observation family, pruning
  on/off, acceleration, checkpointing) share one captured golden run
  through :class:`repro.injection.campaign.Campaign`'s golden pool: a
  ``fig1``-style grid pays one golden run per (level, workload) instead
  of one per cell;
* **worker processes** -- one :class:`~repro.injection.supervisor
  .WorkerSupervisor` per :meth:`ScenarioRunner.run`: pooled cells
  reuse its workers, and each golden payload travels to a worker once,
  not once per cell;
* **cell results** -- cached by cell identity, so re-running a grid
  (or two grids overlapping on a cell) never repeats a campaign within
  one runner.

Every knob reaches ``front.campaign`` through its knob-table row
(:mod:`repro.scenario.knobs`), untouched but for two translations: the
spec's window vocabulary, and per-cell stores, which live under
``execution.store`` with the historical
``level-workload-structure-mode`` directory names (sweep coordinates
appended), and ``resume`` works cell by cell.
"""

import pathlib

from repro.errors import ScenarioError
from repro.scenario.knobs import KNOBS
from repro.scenario.resultset import ResultSet
from repro.sim import registry as sim_registry
from repro.sim.frontend import USE_SCALED_WINDOW


class ScenarioRunner:
    """Runs a :class:`~repro.scenario.spec.ScenarioSpec`'s grid."""

    def __init__(self, spec, progress=None):
        self.spec = spec
        self.progress = progress
        self._frontends = {}
        self._golden_pool = {}
        self._cell_cache = {}
        #: The worker pool of the :meth:`run` in progress (``None``
        #: outside one: a lone ``run_cell`` opens a one-shot pool).
        self._workers = None

    # ------------------------------------------------------------------

    def _frontend(self, level, workload):
        key = (level, workload)
        front = self._frontends.get(key)
        if front is None:
            toolchain = None
            if self.spec.same_binaries:
                toolchain = sim_registry.get("uarch").default_toolchain
            front = sim_registry.create_frontend(level, workload,
                                                 toolchain=toolchain)
            self._frontends[key] = front
        return front

    @staticmethod
    def _window_argument(window):
        """Spec window vocabulary -> front-end ``window=`` argument."""
        if window == "scaled":
            return USE_SCALED_WINDOW
        if window == "to-end":
            return None
        return window

    def _cell_store(self, cell):
        if self.spec.store is None:
            return None
        return pathlib.Path(self.spec.store) / cell.store_name()

    def _campaign_kwargs(self, cell):
        """The knob table's campaign hand-off: each row's value (the
        cell's own where the cell carries one, else the spec's) under
        its ``front.campaign`` keyword."""
        fields = cell.__dataclass_fields__
        kwargs = {
            knob.param: getattr(cell if knob.key in fields else self.spec,
                                knob.key)
            for knob in KNOBS if knob.param
        }
        kwargs.update(window=self._window_argument(cell.window),
                      store=self._cell_store(cell))
        return kwargs

    # ------------------------------------------------------------------

    def run_cell(self, cell):
        """Run (or recall) one cell's campaign."""
        identity = cell.identity()
        if identity in self._cell_cache:
            return self._cell_cache[identity]
        front = self._frontend(cell.level, cell.workload)
        if cell.samples == 0:
            result = self._golden_only(front, cell)
        else:
            result = front.campaign(
                cell.structure, mode=cell.mode,
                golden_pool=self._golden_pool, worker_pool=self._workers,
                **self._campaign_kwargs(cell))
        self._cell_cache[identity] = result
        return result

    def _golden_only(self, front, cell):
        """A zero-budget cell: one timed fault-free run (throughput
        scenarios; no faults, no classification)."""
        import time

        from repro.injection.campaign import CampaignResult

        config = front.make_config(
            cell.mode, 0, seed=cell.seed,
            window=self._window_argument(cell.window),
            distribution=cell.distribution)
        result = CampaignResult(cell.workload, cell.level,
                                cell.structure, config)
        started = time.perf_counter()
        sim = front.golden_run()
        result.golden_seconds = time.perf_counter() - started
        result.total_seconds = result.golden_seconds
        result.golden_cycles = sim.cycle
        result.golden_insts = sim.icount
        return result

    def run(self, cells=None):
        """Run the whole grid (or an explicit cell list) and return a
        :class:`~repro.scenario.resultset.ResultSet`."""
        if cells is None:
            cells = self.spec.cells()
        if not cells:
            raise ScenarioError("targets",
                                "the grid expanded to zero cells")
        remaining = {}
        for cell in cells:
            pair = (cell.level, cell.workload)
            remaining[pair] = remaining.get(pair, 0) + 1
        from repro.injection.supervisor import WorkerSupervisor

        items = []
        self._workers = WorkerSupervisor()
        try:
            for i, cell in enumerate(cells):
                result = self.run_cell(cell)
                items.append((cell, result))
                # Evict the pair's pooled goldens (here and in the
                # workers) once nothing else will share them -- peak
                # memory stays one machine's worth of capture variants,
                # not the whole grid's.
                pair = (cell.level, cell.workload)
                remaining[pair] -= 1
                if remaining[pair] == 0:
                    for key in list(self._golden_pool):
                        if key[:2] == pair:
                            shared = self._golden_pool.pop(key)
                            self._workers.forget(shared.golden)
                if self.progress is not None:
                    self.progress(i + 1, len(cells), cell, result)
        finally:
            self._workers.close()
            self._workers = None
        return ResultSet(items)
