"""The SFI campaign engine, generic over the two abstraction levels.

A campaign follows the paper's two-step industrial flow (SS III-A):

1. **Golden simulation**: one fault-free run, recording the pinout trace,
   the program output and periodic drained checkpoints (captured and
   LRU-bounded by :class:`repro.injection.checkpoint_cache
   .CheckpointCache`; plus, for the RTL acceleration, the golden L1D
   access log).
2. **Faulty simulations**: for each sampled fault the nearest retained
   checkpoint is restored (warm start; ``warm_start=False`` replays the
   whole prefix, bit-identically), execution advances to the injection
   instant, one bit is flipped, and the run continues until the
   post-injection window expires (the paper's 20 kcycles, scaled -- see
   ``SCALED_WINDOW``), or, in "no timer" / software-observation modes,
   to program end -- or until the early-stop comparator proves the
   machine re-converged with the golden state at a checkpoint boundary.

With a :class:`repro.injection.store.CampaignStore`, completed faults
persist durably and an interrupted campaign resumes by fault index.

Classification follows SS IV-A: any deviation at the configured
observation point makes a run Unsafe.

Step 2 is embarrassingly parallel: every faulty run starts from a
shared, read-only golden payload.  The per-fault execution therefore
lives in the picklable :class:`FaultRunner`, which the executor
(:mod:`repro.injection.executor`) drives in-process or on a process
pool (``CampaignConfig(jobs=N)``).  Records merge in fault-sample
order, so for a fixed seed the ``CampaignResult`` is identical at any
worker count (see DESIGN.md).
"""

import bisect
import time

from repro.errors import CampaignInterrupted
from repro.injection import faults as fault_mod
from repro.injection.checkpoint_cache import CheckpointCache
from repro.injection.classify import (
    AFTER_PROGRAM_END,
    FaultClass,
    FaultRecord,
    RECONVERGED,
    classify_outcome,
)
from repro.injection.distributions import make_distribution, make_rng
from repro.injection.observation import hardware_state_digest
from repro.injection.sampling import (
    achieved_error_margin,
    fault_population,
    leveugle_sample_size,
    wilson_interval,
)
# RunStatus lives in the level-generic backend layer; campaign.py keeps
# this re-export for callers that historically imported it from here.
from repro.sim.base import RunStatus

#: The paper terminates each faulty run 20 kcycles after injection.  Our
#: workloads are scaled down ~500x relative to MiBench-on-A9 (DESIGN.md),
#: so the equivalent window keeping the window/run-length ratio in the
#: paper's range is ~2 kcycles.
SCALED_WINDOW = 2000


class CampaignConfig:
    """Knobs of one campaign (defaults follow the paper's setup)."""

    def __init__(self, samples=100, window=SCALED_WINDOW,
                 observation="pinout", distribution="normal", seed=2017,
                 checkpoint_interval=None, checkpoint_bound=None,
                 warm_start=True, early_stop=True, prune_mode="dead",
                 accelerate=False, accelerate_lead=32, hang_factor=3.0,
                 error_margin=0.02, confidence=0.99, jobs=1,
                 batch_size=None, start_method=None, batch_lanes=1,
                 retries=None, batch_timeout=None, chaos=None):
        from repro.injection import supervisor
        from repro.prune import PRUNE_MODES

        if observation not in ("pinout", "software", "arch"):
            raise ValueError(f"unknown observation point {observation!r}")
        if prune_mode not in PRUNE_MODES:
            raise ValueError(
                f"unknown prune mode {prune_mode!r} (choose from "
                f"{PRUNE_MODES})"
            )
        if observation == "arch" and window is not None:
            raise ValueError(
                "the arch (HVF) observation point compares end-of-run "
                "state; use window=None"
            )
        if window is not None and (isinstance(window, bool)
                                   or not isinstance(window, int)
                                   or window < 1):
            raise ValueError(
                f"window must be a cycle count >= 1 or None (run to "
                f"program end), got {window!r}"
            )
        # The watchdog is hang_factor x the golden run: below 1 it
        # would fire before a fault-free run could finish.
        if (isinstance(hang_factor, bool)
                or not isinstance(hang_factor, (int, float))
                or not hang_factor >= 1):
            raise ValueError(
                f"hang_factor must be a number >= 1, got {hang_factor!r}"
            )
        if samples is None or isinstance(samples, bool) \
                or not isinstance(samples, int) or samples < 0:
            raise ValueError(
                f"samples must be a non-negative integer, got {samples!r}"
            )
        if jobs is not None and (isinstance(jobs, bool)
                                 or not isinstance(jobs, int) or jobs < 1):
            raise ValueError(f"jobs must be >= 1 or None (auto), got {jobs!r}")
        if batch_size is not None and (isinstance(batch_size, bool)
                                       or not isinstance(batch_size, int)
                                       or batch_size < 1):
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        if (isinstance(batch_lanes, bool) or not isinstance(batch_lanes, int)
                or batch_lanes < 1):
            raise ValueError(
                f"batch_lanes must be an integer >= 1, got {batch_lanes!r}")
        if checkpoint_bound is not None and checkpoint_bound < 1:
            raise ValueError(
                f"checkpoint_bound must be >= 1 or None, got "
                f"{checkpoint_bound}"
            )
        if retries is not None and (isinstance(retries, bool)
                                    or not isinstance(retries, int)
                                    or retries < 1):
            raise ValueError(
                f"retries must be >= 1 or None (default), got {retries!r}"
            )
        if batch_timeout is not None and not (
                isinstance(batch_timeout, (int, float))
                and not isinstance(batch_timeout, bool)
                and batch_timeout > 0):
            raise ValueError(
                f"batch_timeout must be a positive number of seconds or "
                f"None (derived), got {batch_timeout!r}"
            )
        if start_method is not None:
            # Validate eagerly (raises ExecutionError, a ValueError,
            # with a did-you-mean hint) -- a typo should fail at config
            # time, not as a traceback out of the first worker spawn.
            supervisor.resolve_start_method(start_method)
        self.samples = samples
        self.window = window
        self.observation = observation
        self.distribution = distribution
        self.seed = seed
        self.checkpoint_interval = checkpoint_interval
        #: Max golden checkpoints resident in memory (``None`` =
        #: unbounded); see :class:`CheckpointCache`.
        self.checkpoint_bound = checkpoint_bound
        #: Warm-start: restore the nearest golden checkpoint at or
        #: before each injection instant.  ``False`` is the cold-start
        #: baseline (replay the whole prefix from the base checkpoint);
        #: both produce bit-identical records for a fixed seed.
        self.warm_start = warm_start
        #: Terminate a faulty run as Masked as soon as its full state
        #: digest re-converges with the golden digest at a checkpoint
        #: boundary.  Applied only on backends whose ``DRAIN_FREE``
        #: protocol flag makes the comparison exact, so the
        #: classification sequence never changes -- only wall clock.
        self.early_stop = early_stop
        #: Fault pruning: ``"off"`` simulates every sampled fault;
        #: ``"dead"`` (default) classifies faults whose bit is
        #: overwritten before its next read -- or never read again, or
        #: in an L1D line not yet filled -- as
        #: Masked without simulation, from the golden lifetime trace
        #: (:mod:`repro.prune`; exact: the per-fault classes match
        #: ``"off"`` fault for fault); ``"static"`` proves the same
        #: dead-interval verdicts from dataflow analysis of the program
        #: text plus the golden retired-PC stream, with no access trace
        #: captured at all (:mod:`repro.staticcheck`; arch and rtl
        #: tiers -- tiers without a static model simulate every fault).
        self.prune_mode = prune_mode
        self.accelerate = accelerate
        self.accelerate_lead = accelerate_lead
        self.hang_factor = hang_factor
        self.error_margin = error_margin
        self.confidence = confidence
        #: Worker processes for the faulty-run phase.  ``1`` keeps the
        #: exact serial path; ``None`` means one per CPU.
        self.jobs = jobs
        #: Faults per work item handed to a worker (``None`` = auto).
        self.batch_size = batch_size
        #: ``multiprocessing`` start method (``None`` = best available).
        self.start_method = start_method
        #: Lane count for the faulty phase (``repro.batch``): ``N > 1``
        #: lets up to N faulty runs of one checkpoint segment share a
        #: golden seek, on every tier.  Execution-only: records are
        #: bit-identical to the scalar path, so it stays out of
        #: :meth:`identity`.
        self.batch_lanes = batch_lanes
        #: Failed executions one fault may spend (worker crash, hung
        #: batch, in-run exception) before it is quarantined as an
        #: :class:`~repro.injection.classify.Incident`.  ``None`` =
        #: the supervisor default (2).  Execution-only.
        self.retries = retries
        #: Wall-clock budget (seconds) for one worker batch; an
        #: overrunning batch's worker is killed and the batch retried.
        #: ``None`` derives a budget from the golden run's wall cost x
        #: ``hang_factor``.  Execution-only.
        self.batch_timeout = batch_timeout
        #: Deterministic execution-failure injection (test hook): a
        #: chaos spec string / :class:`~repro.injection.supervisor
        #: .ChaosSpec` making workers segfault, hang or raise at chosen
        #: fault indices.  ``None`` also consults ``REPRO_CHAOS`` at
        #: run time.  Execution-only: classifications are unaffected,
        #: so it stays out of :meth:`identity`.
        self.chaos = supervisor.ChaosSpec.parse(chaos)

    def identity(self):
        """The result-affecting configuration, as a plain dict.

        This is what a campaign store's manifest records and what resume
        validates against: two campaigns with equal identities (plus
        equal workload/level/structure) produce identical fault samples
        and classification sequences (class, detail, sim_cycles), so
        their stores are interchangeable.  Execution-only knobs (jobs,
        batch_size, start_method, checkpoint_bound, batch_lanes,
        retries, batch_timeout, chaos) are excluded --
        classifications are proven independent of them.  Per-session
        *accounting* fields of a record (``wall_seconds``,
        ``replay_cycles``) are outside the identity contract: they
        describe how a session executed (pool timing, which checkpoint
        an LRU-bounded cache restored from), not what it concluded.
        """
        return {
            "samples": self.samples,
            "window": self.window,
            "observation": self.observation,
            "distribution": self.distribution,
            "seed": self.seed,
            "checkpoint_interval": self.checkpoint_interval,
            "warm_start": self.warm_start,
            "early_stop": self.early_stop,
            "prune_mode": self.prune_mode,
            "accelerate": self.accelerate,
            "accelerate_lead": self.accelerate_lead,
            "hang_factor": self.hang_factor,
        }

    def resolved_jobs(self, samples=None):
        """The effective worker count: ``None`` becomes the CPU count,
        and a campaign never uses more workers than faults."""
        if self.jobs is None:
            from repro.injection import executor

            jobs = executor.default_jobs()
        else:
            jobs = self.jobs
        if samples is not None:
            jobs = max(min(jobs, samples), 1)
        return jobs

    def describe(self):
        """One line identifying the campaign (shared knob table:
        :mod:`repro.scenario.knobs`, so this header and the study/
        scenario headers can never drift apart)."""
        from repro.scenario.knobs import describe_knobs

        return describe_knobs(f"{self.samples} faults", {
            "window": self.window,
            "observation": self.observation,
            "distribution": self.distribution,
            "warm_start": self.warm_start,
            "prune": self.prune_mode,
            "jobs": (self.jobs, self.batch_size, self.start_method),
            "lanes": self.batch_lanes,
            "retries": self.retries,
            "batch_timeout": self.batch_timeout,
            "chaos": self.chaos,
        })


class CampaignResult:
    """Counts, records and statistics of one campaign."""

    def __init__(self, workload, level, structure, config):
        self.workload = workload
        self.level = level
        self.structure = structure
        self.config = config
        self.records = []
        self.golden_cycles = 0
        self.golden_insts = 0
        self.golden_seconds = 0.0
        self.total_seconds = 0.0
        self.population = 0
        #: Worker processes the faulty-run phase actually used.
        self.jobs = 1
        #: Records loaded from a campaign store instead of simulated.
        self.resumed = 0
        #: Wall seconds those resumed records cost *their* session --
        #: excluded from this run's serial estimate, so a resumed
        #: campaign's speedup reflects only work actually done here.
        self.resumed_seconds = 0.0
        #: Cycles the lane walk stepped, walk plus tails (``0`` on the
        #: scalar path).  The hardware-independent denominator of the
        #: batch-speedup bench: the walk replays each stretch of the
        #: golden run once per seek, not once per fault.
        self.batch_cycles = 0
        #: Quarantined faults (:class:`~repro.injection.classify
        #: .Incident`): sampled but never classified -- they spent
        #: their retry budget killing, stalling or crashing their runs.
        #: Excluded from every statistic (``n`` counts records only);
        #: a non-empty list makes the campaign :attr:`degraded`.
        self.incidents = []
        #: Fault executions the supervisor re-dispatched after a worker
        #: crash, deadline kill or in-run exception.  ``0`` on an
        #: undisturbed campaign.
        self.retried_count = 0

    def add(self, record):
        self.records.append(record)

    @property
    def degraded(self):
        """True when the campaign completed but quarantined faults."""
        return bool(self.incidents)

    @property
    def n(self):
        return len(self.records)

    def count(self, fclass):
        return sum(1 for r in self.records if r.fclass is fclass)

    @property
    def pruned_count(self):
        """Faults classified from the lifetime trace, no simulation."""
        return sum(1 for r in self.records if r.pruned)

    @property
    def simulated_count(self):
        """Faults whose classification cost a simulation run."""
        return sum(1 for r in self.records if r.simulated)

    @property
    def unsafe_count(self):
        return sum(1 for r in self.records if r.fclass.unsafe)

    @property
    def unsafeness(self):
        """The paper's vulnerability metric: unsafe runs / injections."""
        return self.unsafe_count / self.n if self.n else 0.0

    def confidence_interval(self, confidence=0.95):
        return wilson_interval(self.unsafe_count, self.n, confidence)

    @property
    def seconds_per_run(self):
        if not self.records:
            return 0.0
        return sum(r.wall_seconds for r in self.records) / self.n

    @property
    def simulated_cycles(self):
        """Cycles the faulty phase re-simulated: pre-injection replay
        plus post-injection tail, summed over all runs.  Deterministic
        for a fixed seed, so warm/cold benches compare this ratio
        rather than wall-clock noise."""
        return sum(r.replay_cycles + r.sim_cycles for r in self.records)

    @property
    def estimated_serial_seconds(self):
        """Wall clock a one-process run *of this session's work* would
        have spent: the golden run plus every faulty run actually
        simulated here, back to back.  Resumed records' wall seconds
        belong to the session that produced them and are excluded."""
        return (self.golden_seconds
                + sum(r.wall_seconds for r in self.records)
                - self.resumed_seconds)

    @property
    def speedup(self):
        """Wall-clock speedup over the estimated serial execution of
        this session's work (``1.0`` when nothing was simulated, e.g.
        a fully resumed campaign)."""
        if self.total_seconds <= 0.0 or self.estimated_serial_seconds <= 0.0:
            return 1.0
        return self.estimated_serial_seconds / self.total_seconds

    def recommended_samples(self):
        """Leveugle-exact sample size for the configured margins
        (``0`` for a golden-only result, which has no population)."""
        if not self.population:
            return 0
        return leveugle_sample_size(
            self.population, self.config.error_margin,
            self.config.confidence,
        )

    def achieved_margin(self):
        if not self.population:
            return 0.0
        return achieved_error_margin(self.population, self.n,
                                     self.config.confidence)

    def summary(self):
        low, high = self.confidence_interval()
        return {
            "workload": self.workload,
            "level": self.level,
            "structure": self.structure,
            "n": self.n,
            "unsafeness": self.unsafeness,
            "ci95": (low, high),
            "masked": self.count(FaultClass.MASKED),
            "sdc": self.count(FaultClass.SDC),
            "due": self.count(FaultClass.DUE),
            "hang": self.count(FaultClass.HANG),
            "mismatch": self.count(FaultClass.MISMATCH),
            "latent": self.count(FaultClass.LATENT),
            "golden_cycles": self.golden_cycles,
            "s_per_run": self.seconds_per_run,
            "jobs": self.jobs,
            "pruned": self.pruned_count,
            "simulated": self.simulated_count,
            "resumed": self.resumed,
            "incidents": len(self.incidents),
            "retried": self.retried_count,
            "total_s": self.total_seconds,
            "speedup": self.speedup,
            "population": self.population,
            "recommended_samples": self.recommended_samples(),
            "achieved_margin": self.achieved_margin(),
        }

    def __repr__(self):
        return (
            f"CampaignResult({self.workload}/{self.level}/{self.structure}:"
            f" {self.unsafe_count}/{self.n} unsafe"
            f" = {100 * self.unsafeness:.1f}%)"
        )


class SharedGolden:
    """One captured golden run, shareable across campaigns.

    Scenario grids routinely run several campaigns against the same
    (level, workload) machine -- a prune-mode sweep, or the ``pinout``
    and ``pinout-notimer`` series of one figure.  The golden trajectory
    those campaigns capture is identical whenever every knob that
    shapes the capture agrees (see :meth:`Campaign.golden_key`), so
    :meth:`Campaign.run` can adopt a pooled instance instead of
    re-simulating it.  ``seconds`` records what the original capture
    cost; an adopting campaign's own ``golden_seconds`` stays ``0.0``
    (it did not pay the capture), keeping its serial estimate and
    speedup honest for the work done in its session.
    """

    __slots__ = ("sim", "golden", "cycles", "insts", "seconds")

    def __init__(self, sim, golden, cycles, insts, seconds):
        self.sim = sim
        self.golden = golden
        self.cycles = cycles
        self.insts = insts
        self.seconds = seconds


class FaultRunner:
    """Executes and classifies single faulty runs against a golden payload.

    One instance holds everything step 2 of the flow needs -- the
    campaign config, the golden run's trace/checkpoints and the hang
    deadline -- and nothing else, so it pickles once per worker process
    of the parallel executor.  The serial path drives the very same
    object, which is what makes ``jobs=N`` bit-identical to ``jobs=1``
    for a fixed seed.
    """

    def __init__(self, config, golden, hang_deadline):
        self.config = config
        self.golden = golden
        self.hang_deadline = hang_deadline
        #: Lane-walk cycles this runner actually stepped -- the batched
        #: analogue of per-record replay+sim cycles, accumulated by
        #: :meth:`run_many` for the speedup bench.
        self.batch_cycles = 0

    def uses_lanes(self, count):
        """Whether ``count`` faults run on the lane walk
        (:mod:`repro.batch`): ``batch_lanes > 1``, with more than one
        fault to share a seek."""
        return self.config.batch_lanes > 1 and count > 1

    def run_many(self, sim, specs):
        """Execute ``specs`` in fault-sample order, on the lane engine
        when :meth:`uses_lanes` allows, else through :meth:`run_one`.
        Records are bit-identical either way -- the cross-lane
        equivalence suites pin that.
        """
        if not self.uses_lanes(len(specs)):
            return [self.run_one(sim, fault) for fault in specs]
        from repro.batch import LaneEngine

        engine = LaneEngine(self, sim, self.config.batch_lanes)
        records = engine.run(specs)
        self.batch_cycles += engine.batch_cycles
        return records

    def run_one(self, sim, fault):
        """Seek, advance, then :meth:`inject_and_classify`: one
        FaultRecord.

        The seek restores the nearest retained golden checkpoint at or
        before the injection instant (``warm_start``) or the base
        checkpoint (cold start) and replays the drain-punctuated golden
        trajectory in between, so the pre-injection state -- and hence
        the classification -- is identical either way.
        """
        run_start = time.perf_counter()
        trace_base, restore_cycle, reached = self.advance(sim, fault.cycle)
        return self.inject_and_classify(
            sim, fault, trace_base, reached,
            replay_cycles=sim.cycle - restore_cycle, run_start=run_start)

    def inject_and_classify(self, sim, fault, trace_base, reached,
                            replay_cycles, run_start):
        """Inject, finish, classify: the record of ``fault`` once
        ``sim`` stands at its injection instant.

        ``reached`` is False when the golden run ended first (the fault
        lands in dead time).  ``replay_cycles`` is what the caller spent
        getting ``sim`` here and ``run_start`` when it began; the
        scalar path and the lane walk both end every fault here.
        """
        if not reached:
            return FaultRecord(
                fault, FaultClass.MASKED, AFTER_PROGRAM_END, sim_cycles=0,
                wall_seconds=time.perf_counter() - run_start,
                replay_cycles=replay_cycles,
            )
        sim.inject(fault.structure, fault.bit)
        status, converged = self._finish(sim, fault)
        if converged:
            fclass, detail = FaultClass.MASKED, RECONVERGED
        else:
            fclass, detail = classify_outcome(
                status, self.config.observation, self.golden,
                output=sim.output,
                hw_state=lambda: hardware_state_digest(sim),
                pinout_suffix=lambda: [t.key()
                                       for t in sim.pinout[trace_base:]],
                trace_base=trace_base, machine_fault=sim.fault,
            )
        return FaultRecord(
            fault, fclass, detail,
            sim_cycles=sim.cycle - fault.cycle,
            wall_seconds=time.perf_counter() - run_start,
            replay_cycles=replay_cycles,
        )

    def advance(self, sim, cycle):
        """Seek the golden checkpoint serving ``cycle`` and run up to it.

        Returns ``(trace_base, restore_cycle, reached)``.  ``reached``
        is False when the restored run ended first (drain jitter near
        program end): a fault at ``cycle`` lands in dead time and
        cannot corrupt anything.  The lane walk seeks through it.
        """
        trace_base, restore_cycle = self.golden["cache"].seek(
            sim, cycle, warm=self.config.warm_start,
            max_cycles=self.hang_deadline,
        )
        status = sim.run(stop_cycle=cycle, max_cycles=self.hang_deadline)
        return trace_base, restore_cycle, status is RunStatus.STOPPED

    def _finish(self, sim, fault):
        """Run the post-injection tail.  Returns ``(status, converged)``.

        With ``early_stop`` on a ``DRAIN_FREE`` backend the tail pauses
        at every golden checkpoint boundary and compares full state
        digests: equality proves the faulty machine is bit-identical to
        the golden one (state, memory, output and pinout history), so
        its future is the golden future and the run is Masked -- the
        classification an exhaustive tail run would also reach.  On
        pipelined backends golden digests are post-drain states a free
        run never re-enters, so the comparison is skipped rather than
        approximated.
        """
        cfg = self.config
        end = None if cfg.window is None else fault.cycle + cfg.window
        cache = self.golden["cache"]
        if (cfg.early_stop and type(sim).DRAIN_FREE
                and cache.collect_digests):
            first = bisect.bisect_right(cache.cycles, fault.cycle)
            for k in range(first, cache.count):
                boundary = cache.cycles[k]
                if end is not None and boundary >= end:
                    break
                status = sim.run(stop_cycle=boundary,
                                 max_cycles=self.hang_deadline)
                if status is not RunStatus.STOPPED:
                    return status, False
                if sim.state_digest() == cache.digests[k]:
                    return status, True
        if end is not None:
            return sim.run(stop_cycle=end,
                           max_cycles=self.hang_deadline), False
        return sim.run(max_cycles=self.hang_deadline), False


def _assert_static_verdict(trace, fault, detail, events_at_stop_executed):
    """Sanitizer check: a static verdict must agree with the dynamic
    lifetime trace (``REPRO_STATIC_XCHECK=1``).

    Static verdicts are whole-run claims about the golden trajectory
    (the retired-PC stream is architectural and drain-invariant), so
    the check is horizon-free on every tier:

    * *overwritten* -- the first golden event on the cell at/after the
      injection instant must exist and be a write;
    * *never read again* -- there must be no post-injection event at
      all, or the first one must be a write (a statically-silent bit
      may still be dynamically overwritten: silence is the weaker
      claim only about reads);
    * *unreachable* -- the cell must be untouched across the whole run.

    A violation means the dataflow model claimed a dead interval the
    machine actually read -- a soundness bug, raised immediately.
    """
    from repro.staticcheck import (
        STATIC_OVERWRITE_DETAIL,
        STATIC_SILENT_DETAIL,
        STATIC_UNREACHABLE_DETAIL,
        StaticCrossCheckError,
    )

    if not trace.traces(fault.structure):
        return
    cell = trace.cell_of(fault.structure, fault.bit)
    if detail == STATIC_UNREACHABLE_DETAIL:
        if trace.reachable(fault.structure, cell):
            raise StaticCrossCheckError(
                f"static analysis called {fault.structure}[{cell}] "
                f"unreachable but the golden run touched it"
            )
        return
    threshold = fault.cycle + (1 if events_at_stop_executed else 0)
    event = trace.next_event(fault.structure, cell, threshold)
    if detail == STATIC_OVERWRITE_DETAIL:
        ok = event is not None and event[1]
    elif detail == STATIC_SILENT_DETAIL:
        ok = event is None or event[1]
    else:
        raise StaticCrossCheckError(
            f"unknown static verdict detail: {detail!r}"
        )
    if not ok:
        raise StaticCrossCheckError(
            f"static analysis pruned {fault!r} ({detail}) but the "
            f"golden run's first post-injection event on "
            f"{fault.structure}[{cell}] is a read at cycle {event[0]}"
        )


class CampaignSession:
    """One campaign between its stages, from :meth:`Campaign.open` to
    :meth:`Campaign.complete`: the result being filled, the store and
    what it already held, the resolved chaos spec and -- once
    :meth:`Campaign.prepare` ran -- the pruned verdicts."""

    __slots__ = ("result", "store", "stored", "stored_incidents",
                 "chaos", "started", "done", "pruned")

    def __init__(self, result, store, stored, started):
        self.result = result
        self.store = store
        self.stored = stored
        self.stored_incidents = {}
        self.chaos = None
        self.started = started
        #: The store held every fault: the result is complete.
        self.done = False
        self.pruned = {}

    def close(self):
        if self.store is not None:
            self.store.close()


class Campaign:
    """One SFI campaign against one structure of one simulator."""

    def __init__(self, sim_factory, structure, config=None, workload="?",
                 level="?"):
        self.sim_factory = sim_factory
        self.structure = structure
        self.config = config or CampaignConfig()
        self.workload = workload
        self.level = level

    # ------------------------------------------------------------------

    def _capture_shape(self):
        """What the golden phase must instrument: ``(access, pc)``.

        ``access`` -- capture the per-cell lifetime trace (the dynamic
        pruner's input): ``True`` records the backend's register cells,
        ``"l1d"`` the L1D line cells instead, for campaigns that target
        an ``l1d.*`` array (register events could never decide one of
        their faults, and line events cost a register campaign's golden
        run for nothing), and ``False`` for ``l1i.*`` campaigns, whose
        faults no trace decides; ``pc`` -- capture the retired-PC stream
        (the static pruner's anchor).  ``prune_mode="static"`` needs only
        the PC stream; the sanitizer (``REPRO_STATIC_XCHECK=1``) forces both
        on so every static verdict can be checked against the dynamic
        trace -- extra captures never change classification provenance.
        """
        from repro.staticcheck import (
            static_prune_available,
            static_xcheck_enabled,
        )

        mode = self.config.prune_mode
        xcheck = static_xcheck_enabled() and mode != "off"
        pc = ((mode == "static" or xcheck)
              and static_prune_available(self.level))
        # The sanitizer only adds the access trace where a static
        # engine exists to be checked -- on tiers without one (the
        # renamed uarch register file) the shape is exactly the
        # unsanitized shape, so the env var can never alter what the
        # partitioner sees.
        access = mode == "dead" or (xcheck and pc)
        if self.structure.startswith("l1i."):
            access = False
        elif access and self.structure.startswith("l1d."):
            access = "l1d"
        return access, pc

    def _instrument_golden(self, sim, access_log):
        """Install the golden run's listeners on ``sim``.

        Returns ``(attach_access_log, capture_access, capture_pc)``:
        the l1d access-log attacher of the inject-near-consumption
        acceleration (``None`` when off; re-applied after every
        checkpoint restore) and the :meth:`_capture_shape` pair.
        """
        attach_access_log = None
        if self.config.accelerate and self.structure.startswith("l1d."):
            def attach_access_log(target):
                target.dcache.access_listener = (
                    lambda cycle, index, way, write, addr:
                    access_log.append((cycle, index, way, write, addr))
                )
            attach_access_log(sim)
        capture_access, capture_pc = self._capture_shape()
        if capture_access:
            # No per-checkpoint trace snapshots: the capture loop
            # round-trips the same machine at the same instant, where
            # the live trace already holds the right prefix -- only the
            # final sealed trace feeds the pruner.
            sim.enable_access_trace(
                snapshot_in_checkpoints=False,
                scope="l1d" if capture_access == "l1d" else "registers")
        if capture_pc:
            sim.enable_pc_trace()
        return attach_access_log, capture_access, capture_pc

    def _golden_phase(self, sim, result):
        """Fault-free run with periodic drained checkpoints.

        Checkpoint capture and retention live in
        :class:`CheckpointCache` (configurable stride, LRU-bounded
        resident set); this phase owns listener setup and the
        clean-exit contract.
        """
        cfg = self.config
        started = time.perf_counter()
        access_log = []
        attach_access_log, capture_access, capture_pc = \
            self._instrument_golden(sim, access_log)
        cache = CheckpointCache(
            stride=cfg.checkpoint_interval,
            max_resident=cfg.checkpoint_bound,
            # Digests feed only the early-stop comparator, which fires
            # only on drain-free backends -- skip the capture cost
            # elsewhere.
            collect_digests=(cfg.early_stop
                             and type(sim).DRAIN_FREE),
        )
        status = cache.capture_golden(sim, on_restore=attach_access_log)
        # The golden trajectory is complete: freeze the lifetime trace
        # and the access log before anything else touches this simulator
        # (the serial faulty path reuses it), and keep only the final
        # trace -- per-boundary prefixes would bloat the executor
        # payload for nothing.
        sim.seal_access_trace()
        sim.seal_pc_trace()
        cache.drop_access_traces()
        if attach_access_log is not None:
            sim.dcache.access_listener = None
        if not sim.exited:
            raise RuntimeError(
                f"golden run did not exit cleanly: {status}, {sim.fault}"
            )
        result.golden_cycles = sim.cycle
        result.golden_insts = sim.icount
        result.golden_seconds = time.perf_counter() - started
        golden = {
            "output": sim.output,
            "pinout_keys": [t.key() for t in sim.pinout],
            "end_cycle": sim.cycle,
            "cache": cache,
            "access_log": access_log,
            "trace": sim.access_trace() if capture_access else None,
            "pc_trace": sim.pc_trace() if capture_pc else None,
        }
        if cfg.observation == "arch":
            golden["hw_state"] = hardware_state_digest(sim)
        return golden

    def _draw_specs(self, bit_count, end_cycle):
        """Redraw the campaign's fault samples -- a pure function of
        the config identity plus the golden run's (bits, end_cycle),
        which is what makes store resume deterministic."""
        cfg = self.config
        rng = make_rng(cfg.seed)
        distribution = make_distribution(
            cfg.distribution, 1, max(end_cycle - 1, 1)
        )
        return fault_mod.sample_faults(
            rng, self.structure, bit_count, distribution, cfg.samples
        )

    def _sample_and_check(self, sim, golden, result, store, stored,
                          stored_incidents):
        """Draw the fault samples, record the golden summary in the
        store, and cross-check the faults already on disk against the
        draw (see :meth:`_check_stored_faults`)."""
        cfg = self.config
        bit_count = sim.fault_targets()[self.structure]
        result.population = fault_population(bit_count,
                                             golden["end_cycle"])
        specs = self._draw_specs(bit_count, golden["end_cycle"])
        if cfg.accelerate and self.structure == "l1d.data":
            index = {}
            for cycle, set_i, way, _, _ in golden["access_log"]:
                index.setdefault((set_i, way), []).append(cycle)
            specs = [
                self._accelerate_with_index(sim, fault, index)
                for fault in specs
            ]
        if store is not None:
            store.set_golden(result.golden_cycles, result.golden_insts,
                             golden["end_cycle"], result.population,
                             bit_count, trace=golden.get("trace"))
        self._check_stored_faults(stored, specs)
        self._check_stored_faults(stored_incidents, specs)
        result.resumed = len(stored)
        result.resumed_seconds = sum(stored[i].wall_seconds
                                     for i in sorted(stored))
        return specs

    def _accelerate_with_index(self, sim, fault, index):
        cfg = sim.dcache.config
        set_i, way, _, _ = fault_mod.decode_cache_data_bit(fault.bit, cfg)
        cycles = index.get((set_i, way))
        if not cycles:
            return fault
        pos = bisect.bisect_right(cycles, fault.cycle)
        if pos >= len(cycles):
            return fault
        new_cycle = max(fault.cycle,
                        cycles[pos] - self.config.accelerate_lead)
        return fault_mod.FaultSpec(fault.structure, fault.bit, new_cycle,
                                   original_cycle=fault.cycle)

    def _pruners(self, sim, golden):
        """``(pruner, static)``: the dynamic :class:`~repro.prune
        .FaultPruner` and the :class:`~repro.staticcheck.StaticPruner`
        the golden captures support (``None`` where not captured)."""
        cfg = self.config
        events_at_stop = type(sim).TRACE_EVENTS_AT_STOP_EXECUTED
        pruner = None
        if golden.get("trace") is not None:
            from repro.prune import FaultPruner

            cache = golden["cache"]
            pruner = FaultPruner(
                golden["trace"],
                events_at_stop,
                cfg.observation,
                # Pipelined backends: golden events are provably the
                # faulty machine's events only within the injection's
                # checkpoint segment (see repro.prune.pruner).
                # Drain-free backends share the whole trajectory.
                segments=(None if type(sim).DRAIN_FREE
                          else (cache.cycles, cache.stops)),
                window=cfg.window,
            )
        static = None
        if golden.get("pc_trace") is not None:
            from repro.staticcheck import StaticPruner

            static = StaticPruner(
                sim.program, self.level, cfg.observation,
                golden["pc_trace"], events_at_stop,
            )
        return pruner, static

    def _prune_partition(self, sim, golden, specs):
        """Consult the fault pruners (:meth:`_pruners`) over ``specs``.

        Returns ``pruned_records``: fault index -> :class:`FaultRecord`
        classified from the golden lifetime trace (``dead``) or the
        static dataflow engine (``static``), without simulation.
        """
        cfg = self.config
        pruned_records = {}
        if cfg.prune_mode == "off":
            return pruned_records
        events_at_stop = type(sim).TRACE_EVENTS_AT_STOP_EXECUTED
        pruner, static = self._pruners(sim, golden)
        if cfg.prune_mode == "static" and static is None:
            # No static engine at this tier: every fault simulates.
            # (The dynamic trace, were one ever present, checks static
            # verdicts -- it never substitutes for them.)
            return pruned_records
        if pruner is None and static is None:
            return pruned_records
        xcheck = pruner is not None and static is not None
        for i, fault in enumerate(specs):
            if static is not None:
                static_verdict = static.classify(fault)
                if static_verdict is not None and xcheck:
                    _assert_static_verdict(golden["trace"], fault,
                                           static_verdict[1],
                                           events_at_stop)
                if cfg.prune_mode == "static":
                    # Static mode classifies from static evidence only;
                    # the dynamic trace (when the sanitizer forced its
                    # capture) never decides, it only checks.
                    if static_verdict is not None:
                        fclass, detail = static_verdict
                        pruned_records[i] = FaultRecord(
                            fault, fclass, detail, pruned="static"
                        )
                    continue
            verdict = None if pruner is None else pruner.classify(fault)
            if verdict is not None:
                fclass, detail = verdict
                pruned_records[i] = FaultRecord(fault, fclass, detail,
                                                pruned="dead")
        return pruned_records

    def identity(self):
        """What a campaign store records and resume validates: the
        target plus every result-affecting config knob."""
        return {
            "workload": self.workload,
            "level": self.level,
            "structure": self.structure,
            "config": self.config.identity(),
        }

    def golden_key(self):
        """Pool key under which this campaign's golden run is shareable.

        Two campaigns may adopt the same :class:`SharedGolden` exactly
        when every knob that shapes the golden capture agrees: the
        machine itself (level, workload -- the pool owner must also
        guarantee one toolchain policy per pool), whether the arch
        (HVF) observation point captures the end-of-run hardware
        digest, which golden instrumentation the pruning mode and the
        static sanitizer demand (the :meth:`_capture_shape` pair --
        lifetime trace, retired-PC stream), the checkpoint
        stride/bound, whether boundary
        digests are collected for the early-stop comparator, and --
        when the inject-near-consumption acceleration is live -- the
        structure whose access log is captured.  Sampling knobs
        (samples, seed, window, distribution) never touch the golden
        trajectory and stay out of the key.
        """
        cfg = self.config
        accelerated = cfg.accelerate and self.structure.startswith("l1d.")
        return (
            self.level, self.workload,
            cfg.observation == "arch",
            self._capture_shape(),
            cfg.checkpoint_interval, cfg.checkpoint_bound,
            cfg.early_stop,
            (self.structure, cfg.accelerate_lead) if accelerated
            else None,
        )

    def run(self, progress=None, store=None, resume=False,
            golden_pool=None):
        """Execute the campaign.  Returns a :class:`CampaignResult`.

        Six phases, identical at every level (DESIGN.md, "Campaign
        phases"), in three stages a grid scheduler
        (:func:`repro.injection.executor.run_grid`) calls too:
        **prepare** -- :meth:`open` (phase 1, :meth:`_resume_complete`:
        a fully completed store rebuilds the result without building a
        simulator), then :meth:`_adopt_or_capture_golden` (phase 2)
        and :meth:`prepare` (phases 3-4, :meth:`_sample_and_check` and
        :meth:`_prune_phase`); **execute** -- :meth:`_execute` (phase
        5); **complete** -- :meth:`complete` (phase 6, :meth:`_merge`).

        With a :class:`~repro.injection.store.CampaignStore` every
        completed fault is appended durably; with ``resume=True`` faults
        already on disk are loaded instead of re-run (the merged record
        sequence is bit-identical to an uninterrupted campaign, because
        the sample list is a pure function of the stored identity).
        ``progress`` then counts only the faults actually simulated this
        session.  ``golden_pool`` shares golden captures across
        campaigns (see :meth:`_adopt_or_capture_golden`).
        """
        from repro.injection import supervisor

        session = self.open(store, resume)
        try:
            with supervisor.GracefulShutdown() as shutdown:
                if not session.done:
                    sim, golden = self._adopt_or_capture_golden(
                        session.result, golden_pool)
                    items = self.prepare(session, sim, golden)
                    stream = self.fault_stream(session, golden,
                                               progress=progress)
                    self._execute(sim, items, stream, session.result,
                                  shutdown.requested)
                    self.complete(session, stream, shutdown.signame)
                session.result.total_seconds = (time.perf_counter()
                                                - session.started)
                return session.result
        finally:
            session.close()

    def open(self, store=None, resume=False):
        """Phase 1: start a :class:`CampaignSession` -- open ``store``
        (resuming it when asked) and, when it already holds every
        fault, rebuild the result from it (``session.done``)."""
        from repro.injection import supervisor

        started = time.perf_counter()
        stored = ({} if store is None
                  else store.begin(self.identity(), resume=resume))
        session = CampaignSession(
            CampaignResult(self.workload, self.level, self.structure,
                           self.config),
            store, stored, started)
        try:
            if store is not None:
                session.stored_incidents = store.incidents()
            # Resolved before the golden run, so a bad spec fails fast.
            session.chaos = supervisor.resolve_chaos(self.config.chaos)
            session.done = store is not None and self._resume_complete(
                session.result, stored, session.stored_incidents, store)
        except BaseException:
            session.close()
            raise
        return session

    def prepare(self, session, sim, golden):
        """Phases 3-4 once the golden run is at hand: draw and check the
        samples, prune, append the new verdicts.  Returns the faults
        left to simulate, ``(fault_index, spec)`` pairs.  ``sim`` is
        any simulator of this campaign's machine (its fault targets and
        program are read, it is not run)."""
        specs = self._sample_and_check(sim, golden, session.result,
                                       session.store, session.stored,
                                       session.stored_incidents)
        on_disk = session.stored.keys() | session.stored_incidents.keys()
        session.pruned = self._prune_phase(sim, golden, specs,
                                           session.store, on_disk)
        return [(i, spec) for i, spec in enumerate(specs)
                if i not in session.pruned and i not in on_disk]

    def fault_stream(self, session, golden, token=None, progress=None,
                     on_done=None):
        """The :class:`~repro.injection.supervisor.FaultStream` of the
        faulty phase: this campaign's runner, failure budget, chaos
        spec and store hooks.  ``token`` names the golden in the worker
        pool (default: the parent-side golden's own name)."""
        from repro.injection import supervisor

        cfg = self.config
        store = session.store
        return supervisor.FaultStream(
            supervisor.golden_token(golden) if token is None else token,
            self._fault_runner(golden), retries=cfg.retries,
            batch_timeout=cfg.batch_timeout,
            # Per-fault wall budget feeding derived batch deadlines: a
            # faulty run costs at most ~a golden run's wall time scaled
            # by the watchdog factor; the supervisor applies a generous
            # floor on top (adopted goldens report 0.0s here and fall
            # straight to the floor).
            fault_timeout_hint=(session.result.golden_seconds
                                * cfg.hang_factor * 4),
            chaos=session.chaos, progress=progress,
            on_record=None if store is None else store.append,
            on_incident=None if store is None else store.append_incident,
            on_done=on_done,
        )

    def complete(self, session, stream, signame=None):
        """Phase 6: fold the faulty phase's ``stream`` (``None`` when it
        never ran) into the result, with the pruned and stored faults,
        through :meth:`_merge`.  Returns the result."""
        result = session.result
        records, incidents = {}, {}
        if stream is not None:
            records = stream.records
            incidents = {incident.index: incident
                         for incident in stream.incidents}
            result.retried_count = stream.requeued
            result.batch_cycles = stream.runner.batch_cycles
        # The store stays authoritative for what it holds.
        self._merge(result, self.config.samples,
                    {**session.pruned, **records, **session.stored},
                    {**session.stored_incidents, **incidents},
                    signame, session.store is not None)
        return result

    def _adopt_or_capture_golden(self, result, golden_pool):
        """Phase 2: adopt a pooled golden run or capture one.
        Returns ``(sim, golden)``.

        ``golden_pool`` (a plain dict the caller owns, keyed by
        :meth:`golden_key`) lets campaigns of one scenario grid share
        golden captures: on a hit the whole golden phase is skipped and
        the pooled simulator/payload adopted; on a miss this campaign's
        capture (:meth:`_golden_phase`) is published for the cells after
        it.  Classifications are unaffected -- the key covers every
        capture-shaping knob, and warm-start ``seek`` restores
        bit-identical pre-injection states from any checkpoint-cache
        residency pattern.
        """
        key = self.golden_key()
        shared = None if golden_pool is None else golden_pool.get(key)
        if shared is None:
            sim = self.sim_factory()
            golden = self._golden_phase(sim, result)
            if golden_pool is not None:
                golden_pool[key] = SharedGolden(
                    sim, golden, result.golden_cycles,
                    result.golden_insts, result.golden_seconds)
            return sim, golden
        self.adopt_golden(result, shared, paid=False)
        return shared.sim, shared.golden

    @staticmethod
    def adopt_golden(result, shared, paid):
        """Take a :class:`SharedGolden`'s summary into ``result``.

        Only the campaign that ``paid`` for the capture keeps its cost
        as ``golden_seconds``; an adopter spent nothing on it, so its
        serial estimate (and hence speedup, ~1.0 at jobs=1) reflects
        only work actually done in its session, exactly like resumed
        records.
        """
        result.golden_cycles = shared.cycles
        result.golden_insts = shared.insts
        result.golden_seconds = shared.seconds if paid else 0.0

    def capture_golden(self):
        """Phase 2 on its own, in a pool worker: capture the golden run
        on a fresh simulator.  Returns ``(sim, payload, shared)``: a
        fresh simulator for the faulty runs, the payload they read
        (what :meth:`_fault_runner` keeps) and the whole golden as a
        :class:`SharedGolden` without simulator, for the parent."""
        result = CampaignResult(self.workload, self.level, self.structure,
                                self.config)
        golden = self._golden_phase(self.sim_factory(), result)
        shared = SharedGolden(None, golden, result.golden_cycles,
                              result.golden_insts, result.golden_seconds)
        return self.sim_factory(), self._runner_golden(golden), shared

    def _prune_phase(self, sim, golden, specs, store, on_disk):
        """Phase 4: :meth:`_prune_partition`, with every verdict not
        yet ``on_disk`` appended to the store in fault-index order."""
        pruned = self._prune_partition(sim, golden, specs)
        if store is not None:
            for i in sorted(pruned.keys() - on_disk):
                store.append(i, pruned[i])
        return pruned

    def _execute(self, sim, items, stream, result, stop):
        """Phase 5: simulate ``items`` (``(fault_index, spec)`` pairs)
        into ``stream`` through :func:`repro.injection.executor
        .run_parallel`, which stays in-process on ``sim`` at ``jobs=1``
        or for a single shard, and otherwise runs on a one-shot pool.

        Failure model (see DESIGN.md, "Failure model & recovery
        semantics"): a fault that keeps killing, stalling or crashing
        its runs is quarantined as an :class:`~repro.injection.classify
        .Incident` after ``retries`` failed executions -- the campaign
        then completes *degraded* (``result.incidents`` non-empty)
        while every other fault classifies bit-identically.  The first
        SIGINT/SIGTERM (``stop``) drains in-flight work, flushes the
        store and makes :meth:`_merge` raise
        :class:`~repro.errors.CampaignInterrupted` (resumable); a
        second signal hard-kills.
        """
        from repro.injection import executor

        cfg = self.config
        _, result.jobs = executor.run_parallel(
            stream, self.sim_factory, items,
            jobs=cfg.resolved_jobs(len(items)),
            batch_size=cfg.batch_size, start_method=cfg.start_method,
            fallback_sim=sim, stop=stop,
        )

    def _runner_golden(self, golden):
        """What the faulty phase reads of ``golden``: all that travels
        to workers.  The access log, the lifetime and PC traces (and
        hw_state outside arch mode) stay with the parent.  The
        checkpoint cache ships whole, so workers share the same
        (bounded) restart points and boundary digests."""
        keep = ["cache", "pinout_keys", "output"]
        if self.config.observation == "arch":
            keep.append("hw_state")
        return {key: golden[key] for key in keep}

    def _fault_runner(self, golden):
        """The picklable :class:`FaultRunner` for the faulty phase."""
        cfg = self.config
        hang_deadline = int(golden["end_cycle"] * cfg.hang_factor
                            + (cfg.window or 0) + 20_000)
        return FaultRunner(cfg, self._runner_golden(golden), hang_deadline)

    @staticmethod
    def _merge(result, count, records, incidents, signame, stored):
        """Phase 6: fill ``result`` in fault-sample order from
        ``records`` and ``incidents`` (keyed by fault index; a
        quarantined fault is an incident even where a record exists).

        An index in neither means a drain request stopped the faulty
        phase early: everything completed so far is already flushed
        (the store appends per record), so the store resumes exactly
        where this run stopped.
        """
        resolved = records.keys() | incidents.keys()
        if len(resolved) < count:
            raise CampaignInterrupted(len(resolved), count,
                                      signame=signame or "signal",
                                      stored=stored)
        for i in range(count):
            if i in incidents:
                result.incidents.append(incidents[i])
            else:
                result.add(records[i])

    @staticmethod
    def _check_stored_faults(stored, specs):
        """Cross-check stored records against the redrawn sample list.

        The manifest identity covers every config knob, but a code
        change to the sampling itself would redraw different faults
        under an identical identity -- and the index merge would then
        silently mix two incompatible sample lists.  Records (and
        quarantined incidents) carry their fault, so verify it matches
        the spec at the same index (on ``original_cycle``, which is
        invariant under the inject-near-consumption acceleration).
        """
        from repro.injection.store import StoreMismatchError

        for i, record in stored.items():
            if i >= len(specs):
                raise StoreMismatchError(
                    f"stored record #{i} is beyond the {len(specs)} "
                    f"redrawn fault samples"
                )
            spec, fault = specs[i], record.fault
            if (fault.structure, fault.bit, fault.original_cycle) != (
                    spec.structure, spec.bit, spec.original_cycle):
                raise StoreMismatchError(
                    f"stored record #{i} was injected as {fault!r} but "
                    f"the redrawn sample is {spec!r}; the store predates "
                    f"a sampling change -- delete it and re-run"
                )

    def _resume_complete(self, result, stored, stored_incidents, store):
        """Fast path: every fault is on disk (classified record *or*
        quarantined incident) and the golden summary is recorded --
        rebuild the result without simulating anything.  The stored
        faults are still cross-checked against a redraw of the sample
        list (cheap: the manifest carries the golden run's bit count
        and end cycle), so a store predating a sampling change fails
        loudly here too.  Quarantined faults stay quarantined: a
        resume never re-runs a poison fault, which is what makes
        resuming a degraded campaign a no-op."""
        samples = self.config.samples
        if not all(i in stored or i in stored_incidents
                   for i in range(samples)):
            return False
        golden_info = store.golden_info()
        if golden_info is None or "bits" not in golden_info:
            return False
        redrawn = self._draw_specs(golden_info["bits"],
                                   golden_info["end_cycle"])
        self._check_stored_faults(stored, redrawn)
        self._check_stored_faults(stored_incidents, redrawn)
        result.golden_cycles = golden_info["cycles"]
        result.golden_insts = golden_info["insts"]
        result.population = golden_info["population"]
        for i in range(samples):
            if i in stored_incidents:
                result.incidents.append(stored_incidents[i])
            else:
                result.add(stored[i])
        result.resumed = len(result.records)
        result.resumed_seconds = sum(r.wall_seconds
                                     for r in result.records)
        return True
