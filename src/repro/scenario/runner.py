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
* **worker processes** -- when a cell with faults asks for
  ``jobs > 1``, :meth:`ScenarioRunner.run` runs the grid as one
  schedule (:func:`repro.injection.executor.run_grid`) on one
  :class:`~repro.injection.supervisor.WorkerSupervisor`: workers
  capture the golden runs and every cell's faults share one stream,
  so no worker waits on a golden capture or on another cell's last
  fault, and each golden payload reaches a worker once, not once per
  cell.  At ``jobs = 1`` cells run one after the other, in process;
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
                golden_pool=self._golden_pool,
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
        :class:`~repro.scenario.resultset.ResultSet`.

        When a cell with a fault budget asks for ``jobs > 1``, the grid
        runs as one pool schedule (:meth:`_run_grid`); otherwise cell by
        cell, in this process (:meth:`_run_cells`).
        """
        if cells is None:
            cells = self.spec.cells()
        if not cells:
            raise ScenarioError("targets",
                                "the grid expanded to zero cells")
        if any(self._jobs(cell) > 1 for cell in cells if cell.samples):
            return ResultSet(self._run_grid(cells))
        return ResultSet(self._run_cells(cells))

    @staticmethod
    def _jobs(cell):
        if cell.jobs is None:
            from repro.injection.executor import default_jobs

            return default_jobs()
        return cell.jobs

    def _run_cells(self, cells):
        """One cell after the other through :meth:`run_cell`."""
        remaining = {}
        for cell in cells:
            pair = (cell.level, cell.workload)
            remaining[pair] = remaining.get(pair, 0) + 1
        items = []
        for i, cell in enumerate(cells):
            result = self.run_cell(cell)
            items.append((cell, result))
            # Evict the pair's pooled goldens once nothing else will
            # share them -- peak memory stays one machine's worth of
            # capture variants, not the whole grid's.
            pair = (cell.level, cell.workload)
            remaining[pair] -= 1
            if remaining[pair] == 0:
                for key in list(self._golden_pool):
                    if key[:2] == pair:
                        del self._golden_pool[key]
            if self.progress is not None:
                self.progress(i + 1, len(cells), cell, result)
        return items

    def _run_grid(self, cells):
        """The whole grid as one schedule on one worker pool
        (:func:`repro.injection.executor.run_grid`), as many workers as
        the largest ``jobs`` asks for: goldens are captured by workers
        and every cell's faults share one stream.  Cached and
        golden-only cells run here first."""
        from repro.injection.executor import run_grid
        from repro.injection.store import as_store
        from repro.injection.supervisor import WorkerSupervisor

        done = 0
        plans, waiting = [], {}
        for cell in cells:
            identity = cell.identity()
            if cell.samples > 0 and identity not in self._cell_cache:
                if identity not in waiting:
                    kwargs = self._campaign_kwargs(cell)
                    store = as_store(kwargs.pop("store"),
                                     kwargs.pop("store_format"))
                    resume = kwargs.pop("resume")
                    front = self._frontend(cell.level, cell.workload)
                    plans.append((front.new_campaign(
                        cell.structure, mode=cell.mode, **kwargs),
                        store, resume))
                    waiting[identity] = []
                waiting[identity].append(cell)
                continue
            result = self.run_cell(cell)
            done += 1
            if self.progress is not None:
                self.progress(done, len(cells), cell, result)
        identities = list(waiting)

        def complete(i, result):
            nonlocal done
            self._cell_cache[identities[i]] = result
            for cell in waiting[identities[i]]:
                done += 1
                if self.progress is not None:
                    self.progress(done, len(cells), cell, result)

        if plans:
            jobs = max(self._jobs(group[0]) for group in waiting.values())
            with WorkerSupervisor() as pool:
                run_grid(plans, jobs, pool, on_complete=complete)
        return [(cell, self._cell_cache[cell.identity()])
                for cell in cells]
