"""Parallel faulty-run execution: sharding, the supervised pool, and
the pooled grid schedule.

A campaign's faulty simulations are embarrassingly parallel: every
run restores a golden checkpoint, injects one bit and compares against
read-only golden data.  This module shards the sampled faults into
contiguous batches and fans them out over the supervised worker set of
:mod:`repro.injection.supervisor`, in one of two shapes:

* :func:`run_parallel` -- one campaign's faulty phase
  (:meth:`~repro.injection.campaign.Campaign.run` at ``jobs > 1``, or
  a lone ``front.campaign(jobs=N)``): the golden run was captured in
  this process and its payload (trace keys, output, checkpoints and
  waypoints) is shipped to each worker **once**; ``jobs=1`` or a
  single batch stays in-process and never builds a pool;
* :func:`run_grid` -- a whole scenario grid at ``jobs > 1``
  (:meth:`~repro.scenario.runner.ScenarioRunner.run`): each golden
  run is captured by a worker, which keeps it as if shipped, while the
  other workers run faults; the parent only samples, prunes and
  stores, and every cell's faults join one stream of batches.  At most
  ``jobs`` goldens are captured ahead of their fault work, and a
  golden is dropped everywhere once its last cell completes, so what
  the parent and workers hold stays bounded by ``jobs``, not by the
  grid.

Either way:

* each worker builds one simulator per golden and reuses it across
  all its batches, exactly like the serial loop reuses one simulator
  across faults (``restore`` rebuilds the machine, so no state leaks
  between runs);
* batches complete in any order, but records are merged back per
  campaign by fault index, so the resulting sequence -- classes,
  details, cycle counts -- is identical to what ``jobs=1`` produces for
  the same seed.  Only the ``wall_seconds`` timings differ;
* worker death, hung batches and poison faults are survivable: the
  supervisor respawns, re-shards with backoff, bisects repeated
  failures down to the offending fault and quarantines it as an
  :class:`~repro.injection.classify.Incident` (see DESIGN.md, "Failure
  model & recovery semantics").

The worker start method defaults to ``fork`` on Linux (cheapest: the
golden payload -- 0.4-0.7 MB per fig1 golden run, mostly the RAM pages
and in-flight waypoints of its checkpoints -- still transfers
explicitly, but the interpreter and imports come for free) and to
``spawn`` elsewhere.  Both are supported; ``REPRO_MP_START`` or
``CampaignConfig(start_method=...)`` override the choice.
"""

import math
import os
import time

from repro.injection import supervisor
from repro.injection.supervisor import (  # noqa: F401  (re-exports)
    DEFAULT_RETRIES,
    resolve_start_method,
)


def default_jobs():
    """The ``jobs=None`` resolution: one worker per *available* CPU.

    CPU affinity masks (taskset, container cpusets) make
    ``os.cpu_count()`` an overcount; honouring them avoids spawning
    dozens of workers pinned to one core.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def shard(specs, jobs, batch_size=None):
    """Split ``specs`` into contiguous ``(start_index, faults)`` batches.

    The default batch size aims at ~4 batches per worker so a slow batch
    (hangs cost ``hang_factor`` times a normal run) cannot straggle the
    whole pool, without paying per-fault IPC overhead.  Smaller batches
    also shrink the blast radius of a worker crash: only the dead
    worker's batch is re-sharded and retried.
    """
    if batch_size is None:
        batch_size = max(1, math.ceil(len(specs) / (jobs * 4)))
    return [
        (start, specs[start:start + batch_size])
        for start in range(0, len(specs), batch_size)
    ]


def entry_batches(items, jobs, batch_size=None):
    """``items`` (``(fault_index, spec)`` pairs) as the supervisor's
    batches: :func:`shard`'s contiguous slices, each entry
    ``(fault_index, spec, attempt)`` at attempt 0."""
    return [[(index, spec, 0) for index, spec in chunk]
            for _, chunk in shard(items, jobs, batch_size)]


def run_parallel(stream, sim_factory, items, jobs, batch_size=None,
                 start_method=None, fallback_sim=None, stop=None):
    """Execute ``items`` (``(fault_index, spec)`` pairs) of one
    :class:`~repro.injection.supervisor.FaultStream` on up to ``jobs``
    supervised workers; the stream collects the records (bit-identical
    to the serial loop for a fixed seed, whatever crashes or retries
    happened along the way), the quarantined incidents and the retry
    count, and fires its callbacks.

    Returns ``(drained, jobs_used)``: ``drained`` is True when
    ``stop()`` requested a graceful drain; ``jobs_used`` may be lower
    than requested when there are fewer batches than workers (``1``
    means everything ran in-process, on ``fallback_sim`` when given).
    Otherwise a one-shot pool is opened and closed around this call.
    """
    batches = entry_batches(items, jobs, batch_size)
    jobs = min(jobs, len(batches))
    if jobs <= 1:
        # One worker or one batch: stay in-process -- no context, no
        # queues, no payload pickling.
        sim = fallback_sim if fallback_sim is not None else sim_factory()
        return supervisor.run_in_process(sim, stream, items, stop), 1
    with supervisor.WorkerSupervisor(start_method) as workers:
        workers.publish(stream.token, sim_factory, stream.runner.golden)
        workers.submit(stream, batches)
        drained = workers.serve(jobs, stop)
    return drained, jobs


def run_grid(plans, jobs, pool, on_complete=None):
    """Run several campaigns as one schedule on ``pool`` (``jobs``
    workers) and return their results, in ``plans`` order.

    ``plans`` lists ``(campaign, store, resume)``.  Campaigns sharing a
    :meth:`~repro.injection.campaign.Campaign.golden_key` share one
    golden run, captured by a worker (:meth:`~repro.injection
    .supervisor.WorkerSupervisor.capture`) rather than here; when it
    arrives, each of its campaigns is prepared here (sampling, store
    golden summary, pruning) and its faults join the pool's one stream
    of batches.  A campaign completes (``on_complete(index, result)``)
    when its last fault lands, and a golden is dropped, here and in the
    workers, when its last campaign completes.  At most ``jobs``
    goldens are captured ahead of their fault work, which bounds what
    parent and workers hold.

    The first SIGINT/SIGTERM drains: in-flight work finishes and
    flushes to the stores, then the first unfinished campaign raises
    :class:`~repro.errors.CampaignInterrupted`.
    """
    return _Grid(plans, jobs, pool, on_complete).run()


class _Grid:
    """The state of one :func:`run_grid`."""

    def __init__(self, plans, jobs, pool, on_complete):
        self.plans = plans
        self.jobs = jobs
        self.pool = pool
        self.on_complete = on_complete
        self.sessions = [None] * len(plans)
        self.results = [None] * len(plans)
        groups = {}
        for i, (campaign, _, _) in enumerate(plans):
            groups.setdefault(campaign.golden_key(), []).append(i)
        #: Plan indices per golden run, in first-appearance order.
        self.waiting = list(groups.values())
        #: Golden token -> campaigns on it still running.
        self.running = {}
        self.stop = None

    def run(self):
        with supervisor.GracefulShutdown() as shutdown:
            self.stop = shutdown.requested
            started = time.perf_counter()
            try:
                self._open_next()
                self.pool.serve(self.jobs, self.stop)
                for i, result in enumerate(self.results):
                    if result is None:
                        self.results[i] = self._interrupted(
                            i, shutdown.signame)
            finally:
                for session in self.sessions:
                    if session is not None:
                        session.close()
        self._charge(time.perf_counter() - started)
        return self.results

    def _charge(self, wall):
        """Campaigns overlap in time, so each is charged a share of the
        wall clock in proportion to its serial work: the shares sum to
        the wall time, and every campaign's speedup reads the grid's
        serial work / wall."""
        serial = [result.estimated_serial_seconds
                  for result in self.results]
        total = sum(serial)
        for result, work in zip(self.results, serial):
            result.total_seconds = wall * (
                work / total if total > 0 else 1 / len(serial))

    def _open_next(self):
        """Open the next golden runs' campaigns (phase 1) and queue
        their captures, while fewer than ``jobs`` are in progress."""
        while (self.waiting and len(self.running) < self.jobs
               and not self.stop()):
            live = []
            for i in self.waiting.pop(0):
                campaign, store, resume = self.plans[i]
                self.sessions[i] = campaign.open(store, resume)
                if self.sessions[i].done:
                    self._finish(i)
                else:
                    live.append(i)
            if live:
                token = self.pool.capture(
                    self.plans[live[0]][0],
                    lambda token, shared, live=live:
                    self._golden(live, token, shared))
                self.running[token] = len(live)

    def _golden(self, live, token, shared):
        """A golden run arrived: prepare its campaigns (phases 3-4) and
        queue their faults.  Only the first pays the capture, as in
        :meth:`~repro.injection.campaign.Campaign.run`.  Nothing here
        keeps the full golden (lifetime trace, access log) once every
        campaign is partitioned -- only the fault runners' share."""
        sim = self.plans[live[0]][0].sim_factory()
        for n, i in enumerate(live):
            campaign = self.plans[i][0]
            session = self.sessions[i]
            campaign.adopt_golden(session.result, shared, paid=n == 0)
            items = campaign.prepare(session, sim, shared.golden)
            stream = campaign.fault_stream(
                session, shared.golden, token=token,
                on_done=lambda stream, i=i: self._finish(i, stream, token))
            batches = entry_batches(items, self.jobs,
                                    campaign.config.batch_size)
            session.result.jobs = max(1, min(self.jobs, len(batches)))
            if batches:
                self.pool.submit(stream, batches)
            else:
                self._finish(i, stream, token)

    def _finish(self, i, stream=None, token=None):
        """Campaign ``i`` completed (phase 6)."""
        campaign = self.plans[i][0]
        session = self.sessions[i]
        if stream is not None:
            campaign.complete(session, stream)
        session.close()
        self.results[i] = session.result
        if self.on_complete is not None:
            self.on_complete(i, session.result)
        if token is not None:
            self.running[token] -= 1
            if not self.running[token]:
                del self.running[token]
                self.pool.forget(token)
                self._open_next()

    def _interrupted(self, i, signame):
        """Campaign ``i`` after a drain: complete it from what is
        stored, which raises :class:`~repro.errors.CampaignInterrupted`
        unless that is every fault."""
        from repro.errors import CampaignInterrupted

        campaign, store, _ = self.plans[i]
        session = self.sessions[i]
        if session is None:
            raise CampaignInterrupted(0, campaign.config.samples,
                                      signame=signame or "signal",
                                      stored=store is not None)
        return campaign.complete(session, None, signame)
