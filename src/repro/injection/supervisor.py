"""Supervised campaign execution: crash-safe workers, quarantine, drain.

The process-pool of PR 1 was fire-and-forget: one worker OOM-kill or
native segfault lost the whole sweep, a hung run stalled it forever,
and Ctrl-C left the campaign store wherever the last flush happened to
land.  This module replaces the pool with an explicitly supervised
worker set:

* **crash detection** -- each worker is a plain ``Process`` fed over
  its own task queue; the supervisor polls liveness, respawns dead
  workers and re-shards their in-flight batch (with capped exponential
  backoff) instead of deadlocking on a result that will never come;
* **deadlines** -- every batch gets a wall-clock budget (explicit
  ``batch_timeout`` or derived from the golden run's wall cost x
  ``hang_factor``); an expired batch's worker is killed and the batch
  retried like a crash;
* **poison-fault quarantine** -- a batch that keeps failing is bisected
  until the offending fault is isolated; once a single fault has spent
  its retry budget it is recorded as an :class:`~repro.injection
  .classify.Incident` (``disposition="error"``, persisted in the
  store's ``incidents.jsonl`` sidecar) and the campaign completes
  *degraded* while every other fault classifies bit-identically;
* **graceful shutdown** -- :class:`GracefulShutdown` turns the first
  SIGINT/SIGTERM into a drain request (in-flight batches finish and
  flush to the store, then :class:`~repro.errors.CampaignInterrupted`
  is raised with a resumable store); a second signal hard-kills.

Determinism: retries never change classifications.  A faulty run is a
pure function of the golden payload and the fault spec, so a record
computed on attempt 3 of a respawned worker is bit-identical to the
record an undisturbed run produces -- the supervisor only decides
*where and when* a fault executes, never *what* it computes.

The :class:`ChaosSpec` hook exists to prove all of the above under
test: ``CampaignConfig(chaos=...)`` or ``REPRO_CHAOS`` deterministically
makes workers segfault, hang or raise at chosen fault indices.  It is
an execution-only knob (excluded from the store identity) and inert in
production.
"""

import difflib
import multiprocessing
import os
import pickle
import queue
import signal
import sys
import threading
import time

from repro.errors import ExecutionError
from repro.injection.classify import Incident

#: Failed executions a single fault may spend before quarantine: the
#: issue's "kills or stalls a worker twice" contract.
DEFAULT_RETRIES = 2

#: Retry backoff: ``min(base * 2**attempt, cap)`` seconds.  Small base
#: (the common transient is a dead worker, already paid for by the
#: respawn), hard cap so a poison batch cannot stall the campaign.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: Floor for derived batch deadlines.  The derivation multiplies the
#: golden run's wall cost, which for the scaled-down workloads is
#: milliseconds -- without a generous floor, scheduler jitter alone
#: would kill healthy batches.
_MIN_BATCH_TIMEOUT = 20.0

#: Supervisor poll granularity bounds (seconds): how long one result
#: wait may block before liveness/deadline/stop checks run again.
_POLL_MIN = 0.005
_POLL_MAX = 0.25


def resolve_start_method(name=None):
    """Pick the ``multiprocessing`` start method.

    Priority: explicit ``name`` argument, then the ``REPRO_MP_START``
    environment variable, then ``fork`` where available (Linux), else
    ``spawn``.  An unknown name raises :class:`ExecutionError` (a
    ``ValueError``) with a did-you-mean hint, so a typo in
    ``REPRO_MP_START`` surfaces as one friendly line instead of a
    worker-spawn traceback.
    """
    name = name or os.environ.get("REPRO_MP_START")
    available = multiprocessing.get_all_start_methods()
    if name:
        if name not in available:
            close = difflib.get_close_matches(str(name), available, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ExecutionError(
                f"unknown start method {name!r}: choose one of "
                f"{', '.join(available)}{hint}"
            )
        return name
    # fork is the cheap path but is only reliably safe on Linux --
    # macOS offers it yet made spawn its default for a reason
    # (post-initialization forks can abort in system frameworks).
    if sys.platform.startswith("linux") and "fork" in available:
        return "fork"
    return "spawn"


# ----------------------------------------------------------------------
# chaos hook
# ----------------------------------------------------------------------

class ChaosError(RuntimeError):
    """The failure a ``raise`` chaos action injects into a run."""


class ChaosSpec:
    """Deterministic failure injection for the execution layer itself.

    Parsed from a spec string of comma-separated ``kind@index`` actions
    (``CampaignConfig(chaos=...)`` or the ``REPRO_CHAOS`` environment
    variable)::

        segv@3          worker segfaults when it picks up fault #3
        hang@7          worker sleeps forever on fault #7
        raise@2         fault #2 raises ChaosError
        sleep@*         every fault pauses ~0.25 s (signal-test pacing)

    ``index`` is the campaign's global fault-sample index (``*`` =
    every fault).  An action fires **once** -- on the fault's first
    execution attempt -- unless the kind carries a ``*`` suffix
    (``segv*@3``), which makes it persistent across retries; one-shot
    actions model transient failures (the retry succeeds), persistent
    ones model poison faults (the retry budget drains and the fault is
    quarantined).  Determinism needs no shared state: the attempt
    counter travels with the task, so a retried fault is distinguishable
    from a fresh one in any worker.

    In-process execution (``jobs=1`` or a degenerate shard) honours
    only ``raise`` and ``sleep``: ``segv``/``hang`` would take down the
    supervising process itself, which no retry could observe.
    """

    KINDS = ("segv", "hang", "raise", "sleep")

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    @classmethod
    def parse(cls, text):
        """``"segv*@3,raise@0"`` -> ChaosSpec (``None``/blank -> None)."""
        if text is None or isinstance(text, ChaosSpec):
            return text
        entries = []
        for chunk in str(text).split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, sep, where = chunk.partition("@")
            if not sep or not where.strip():
                raise ExecutionError(
                    f"bad chaos action {chunk!r}: expected kind@index "
                    f"(e.g. segv@3, hang*@7, raise@*)"
                )
            kind = kind.strip()
            persistent = kind.endswith("*")
            if persistent:
                kind = kind[:-1]
            if kind not in cls.KINDS:
                close = difflib.get_close_matches(kind, cls.KINDS, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ExecutionError(
                    f"unknown chaos kind {kind!r}: choose one of "
                    f"{', '.join(cls.KINDS)}{hint}"
                )
            where = where.strip()
            if where == "*":
                index = None
            else:
                try:
                    index = int(where)
                except ValueError:
                    raise ExecutionError(
                        f"bad chaos index {where!r} in {chunk!r}: expected "
                        f"a fault-sample index or *"
                    ) from None
                if index < 0:
                    raise ExecutionError(
                        f"chaos index must be >= 0, got {index}"
                    )
            entries.append((kind, index, persistent))
        if not entries:
            return None
        return cls(entries)

    def fire(self, index, attempt, allow_kill=True):
        """Execute the actions matching ``(index, attempt)``, if any."""
        for kind, target, persistent in self.entries:
            if target is not None and target != index:
                continue
            if not persistent and attempt > 0:
                continue
            if kind == "sleep":
                time.sleep(0.25)
            elif kind == "raise":
                raise ChaosError(
                    f"chaos: injected failure at fault #{index} "
                    f"(attempt {attempt})"
                )
            elif not allow_kill:
                # segv/hang in the supervising process would be suicide,
                # not chaos -- only sacrificial workers honour them.
                continue
            elif kind == "segv":
                os.kill(os.getpid(), signal.SIGSEGV)
            elif kind == "hang":
                while True:  # pragma: no cover - killed by the deadline
                    time.sleep(3600)

    def __str__(self):
        return ",".join(
            f"{kind}{'*' if persistent else ''}"
            f"@{'*' if index is None else index}"
            for kind, index, persistent in self.entries
        )

    def __repr__(self):
        return f"ChaosSpec({str(self)!r})"


def resolve_chaos(configured=None):
    """The effective chaos spec: config knob first, then ``REPRO_CHAOS``.

    Resolved at run time (not config time) so one exported variable
    reaches every campaign of a scenario grid without touching specs.
    """
    if configured is not None:
        return ChaosSpec.parse(configured)
    return ChaosSpec.parse(os.environ.get("REPRO_CHAOS"))


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------

class GracefulShutdown:
    """Two-stage SIGINT/SIGTERM policy for a running campaign.

    First signal: set a flag the execution loops poll -- in-flight
    faults finish and flush, queued work is abandoned, and the campaign
    raises :class:`~repro.errors.CampaignInterrupted` over a resumable
    store.  Second signal: raise ``KeyboardInterrupt`` right in the
    handler -- the hard kill for when the drain itself is stuck.

    A no-op outside the main thread (Python only delivers signals
    there) and on platforms without the signals; the previous handlers
    are restored on exit, so nesting and test harnesses stay safe.
    """

    def __init__(self):
        self._requested = False
        self.signame = None
        self._previous = {}

    def __enter__(self):
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError, AttributeError):
                    self._previous.pop(sig, None)
        return self

    def __exit__(self, *exc):
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()
        return False

    def _handle(self, signum, frame):
        if self._requested:
            raise KeyboardInterrupt
        self._requested = True
        try:
            self.signame = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unnamed signal number
            self.signame = f"signal {signum}"

    def requested(self):
        return self._requested


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _worker_main(payload, task_q, result_q, worker_id):
    """One supervised worker: build a sim once, serve batches forever.

    Tasks are ``(batch_id, [(fault_index, spec, attempt), ...])``;
    ``None`` is the shutdown sentinel.  Results are ``("done", ...)``
    or ``("error", ...)`` -- a worker survives an in-run exception and
    keeps serving (the supervisor decides about retries), so only
    process death or a deadline kill costs a respawn.
    """
    # The parent broadcasts SIGINT to the group on Ctrl-C; workers must
    # outlive it so the drain can finish.  SIGTERM keeps its default
    # (die), which is exactly what the crash-recovery path exercises.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    sim_factory, runner, chaos = pickle.loads(payload)
    sim = sim_factory()
    while True:
        task = task_q.get()
        if task is None:
            return
        batch_id, entries = task
        base_cycles = runner.batch_cycles
        try:
            if chaos is None:
                records = runner.run_many(sim,
                                          [spec for _, spec, _ in entries])
            else:
                # Per-fault loop so each action fires at its exact
                # index/attempt; chaos runs are test runs, the lane
                # engine's throughput does not matter here.
                records = []
                for index, spec, attempt in entries:
                    chaos.fire(index, attempt)
                    records.append(runner.run_one(sim, spec))
            result_q.put((
                "done", worker_id, batch_id, records,
                runner.batch_cycles - base_cycles,
                runner.batch_lane_peak_bytes,
            ))
        except Exception as exc:
            result_q.put((
                "error", worker_id, batch_id,
                f"{type(exc).__name__}: {exc}",
            ))


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------

class _Batch:
    """One unit of dispatch: entries plus its retry/deadline state."""

    __slots__ = ("id", "entries", "not_before", "deadline")

    def __init__(self, batch_id, entries, not_before=0.0):
        self.id = batch_id
        self.entries = entries
        #: Earliest monotonic instant this batch may be dispatched
        #: (retry backoff).
        self.not_before = not_before
        #: Monotonic instant the batch is declared hung (set at
        #: dispatch).
        self.deadline = 0.0


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("id", "proc", "task_q")

    def __init__(self, worker_id, proc, task_q):
        self.id = worker_id
        self.proc = proc
        self.task_q = task_q


class WorkerSupervisor:
    """Drives up to ``jobs`` worker processes over explicit queues.

    Unlike ``multiprocessing.Pool``, every batch is tracked from
    dispatch to completion: a worker that dies or overruns its deadline
    is respawned and its batch re-sharded, so ``jobs=N`` can never
    deadlock waiting on a result that no process will produce.
    """

    def __init__(self, sim_factory, runner, jobs, start_method=None,
                 retries=DEFAULT_RETRIES, batch_timeout=None,
                 fault_timeout_hint=None, chaos=None):
        self.sim_factory = sim_factory
        self.runner = runner
        self.jobs = max(1, jobs)
        self.retries = max(1, retries or DEFAULT_RETRIES)
        #: Explicit per-batch wall-clock budget; ``None`` derives one
        #: from ``fault_timeout_hint`` (seconds per fault, already
        #: scaled by ``hang_factor`` -- see ``Campaign.run``).
        self.batch_timeout = batch_timeout
        self.fault_timeout_hint = fault_timeout_hint or 0.0
        self.chaos = chaos
        self._ctx = multiprocessing.get_context(
            resolve_start_method(start_method))
        #: Lane-engine accounting aggregated from worker reports (the
        #: old pool simply lost these for ``jobs>1``).
        self.batch_cycles = 0
        self.batch_lane_peak_bytes = 0
        self._next_batch_id = 0
        self._next_worker_id = 0

    # -- helpers -------------------------------------------------------

    def _make_batch(self, entries, not_before=0.0):
        self._next_batch_id += 1
        return _Batch(self._next_batch_id, entries, not_before)

    def _spawn(self, payload, result_q):
        self._next_worker_id += 1
        task_q = self._ctx.SimpleQueue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(payload, task_q, result_q, self._next_worker_id),
            name=f"repro-worker-{self._next_worker_id}",
            daemon=True,
        )
        proc.start()
        return _Worker(self._next_worker_id, proc, task_q)

    def _timeout_for(self, batch):
        if self.batch_timeout is not None:
            return self.batch_timeout
        return max(_MIN_BATCH_TIMEOUT,
                   self.fault_timeout_hint * len(batch.entries) * 8)

    @staticmethod
    def _kill(proc):
        if proc.is_alive():
            proc.terminate()
            proc.join(0.5)
        if proc.is_alive():
            proc.kill()
            proc.join(0.5)
        proc.join(0.0)

    # -- the supervision loop ------------------------------------------

    def run(self, entry_batches, progress=None, on_record=None,
            on_incident=None, stop=None):
        """Execute ``entry_batches`` (lists of ``(index, spec, attempt)``).

        Returns ``(records, incidents, requeued, drained)``:
        ``records`` maps fault index -> FaultRecord for every fault
        that classified; ``incidents`` lists the quarantined ones;
        ``requeued`` counts fault executions re-dispatched after a
        failure; ``drained`` is True when ``stop()`` interrupted the
        run (in-flight batches were finished and flushed, queued ones
        abandoned).
        """
        total = sum(len(b) for b in entry_batches)
        pending = [self._make_batch(list(b)) for b in entry_batches if b]
        records = {}
        incidents = []
        failures = {}
        requeued = 0
        done = 0
        drained = False
        inflight = {}   # batch_id -> (_Batch, _Worker)
        workers = {}    # worker_id -> _Worker
        payload = pickle.dumps(
            (self.sim_factory, self.runner, self.chaos),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        result_q = self._ctx.Queue()

        def requeue(entries):
            nonlocal requeued
            requeued += len(entries)
            bumped = [(i, spec, attempt + 1)
                      for i, spec, attempt in entries]
            worst = max(attempt for _, _, attempt in bumped)
            delay = min(_BACKOFF_BASE * (2 ** min(worst, 6)), _BACKOFF_CAP)
            pending.append(self._make_batch(bumped,
                                            time.monotonic() + delay))

        def fail(batch, kind, detail):
            nonlocal done
            for index, _, _ in batch.entries:
                failures[index] = failures.get(index, 0) + 1
            if len(batch.entries) > 1:
                # Bisect: halves re-run independently, so repeated
                # failures converge on the single offending fault while
                # its innocent batch-mates complete normally.
                mid = (len(batch.entries) + 1) // 2
                requeue(batch.entries[:mid])
                requeue(batch.entries[mid:])
                return
            index, spec, _ = batch.entries[0]
            if failures[index] >= self.retries:
                incident = Incident(index, spec, kind, detail,
                                    attempts=failures[index])
                incidents.append(incident)
                if on_incident is not None:
                    on_incident(incident)
                done += 1
                if progress is not None:
                    progress(done, total, None)
                return
            requeue(batch.entries)

        try:
            while pending or inflight:
                now = time.monotonic()
                if stop is not None and not drained and stop():
                    # Drain: finish what is running, abandon the queue.
                    drained = True
                    pending.clear()
                # Reap workers that died while idle (nothing to retry).
                for worker in [w for w in workers.values()
                               if not w.proc.is_alive()
                               and all(wk is not w
                                       for _, wk in inflight.values())]:
                    worker.proc.join(0.0)
                    del workers[worker.id]
                # Dispatch ready batches onto idle (spawning) workers.
                busy = {worker.id for _, worker in inflight.values()}
                for batch in [b for b in sorted(pending,
                                                key=lambda b: b.id)
                              if b.not_before <= now]:
                    worker = next(
                        (w for w in workers.values()
                         if w.id not in busy and w.proc.is_alive()),
                        None,
                    )
                    if worker is None:
                        if len(workers) >= self.jobs:
                            break
                        worker = self._spawn(payload, result_q)
                        workers[worker.id] = worker
                    pending.remove(batch)
                    batch.deadline = now + self._timeout_for(batch)
                    inflight[batch.id] = (batch, worker)
                    busy.add(worker.id)
                    worker.task_q.put((batch.id, batch.entries))
                # Wait for the next event: a result, a deadline, or a
                # backoff expiry -- bounded so liveness checks and the
                # stop flag are polled regularly.
                horizon = [b.deadline for b, _ in inflight.values()]
                horizon += [b.not_before for b in pending]
                wait = _POLL_MAX
                if horizon:
                    wait = min(wait, max(min(horizon) - now, _POLL_MIN))
                message = None
                if inflight:
                    try:
                        message = result_q.get(timeout=wait)
                    except queue.Empty:
                        pass
                elif pending:
                    time.sleep(wait)
                if message is not None:
                    tag, _, batch_id = message[:3]
                    landed = inflight.pop(batch_id, None)
                    if landed is None:
                        # Stale: the batch was already failed over (for
                        # example its worker was deadline-killed right
                        # after posting).  The retry recomputes the
                        # same records; dropping this copy keeps every
                        # index appended to the store exactly once.
                        continue
                    batch, worker = landed
                    if tag == "done":
                        _, _, _, batch_records, cycles, peak = message
                        self.batch_cycles += cycles
                        self.batch_lane_peak_bytes = max(
                            self.batch_lane_peak_bytes, peak)
                        for (index, _, _), record in zip(batch.entries,
                                                         batch_records):
                            records[index] = record
                            if on_record is not None:
                                on_record(index, record)
                        done += len(batch_records)
                        if progress is not None:
                            progress(done, total, batch_records[-1])
                    else:
                        fail(batch, "exception", message[3])
                # Liveness and deadlines for everything still in flight.
                now = time.monotonic()
                for batch_id, (batch, worker) in list(inflight.items()):
                    if not worker.proc.is_alive():
                        inflight.pop(batch_id)
                        worker.proc.join(0.0)
                        workers.pop(worker.id, None)
                        code = worker.proc.exitcode
                        fail(batch, "crash",
                             f"worker died (exit code {code}) while "
                             f"running {len(batch.entries)} fault(s)")
                    elif now >= batch.deadline:
                        inflight.pop(batch_id)
                        workers.pop(worker.id, None)
                        self._kill(worker.proc)
                        fail(batch, "hang",
                             f"batch overran its "
                             f"{self._timeout_for(batch):.1f}s deadline")
            return records, incidents, requeued, drained
        finally:
            for worker in workers.values():
                if worker.proc.is_alive():
                    try:
                        worker.task_q.put(None)
                    except Exception:  # pragma: no cover - broken pipe
                        pass
            deadline = time.monotonic() + 1.0
            for worker in workers.values():
                worker.proc.join(max(0.0,
                                     deadline - time.monotonic()))
                self._kill(worker.proc)
            result_q.close()
            result_q.cancel_join_thread()


# ----------------------------------------------------------------------
# in-process supervised execution (jobs=1 and degenerate shards)
# ----------------------------------------------------------------------

def run_serial_supervised(sim, runner, items, retries=DEFAULT_RETRIES,
                          chaos=None, progress=None, on_record=None,
                          on_incident=None, stop=None):
    """The serial loop under the same failure contract as the pool.

    ``items`` is a list of ``(fault_index, spec)``.  A run that raises
    is retried up to ``retries`` executions, then quarantined as an
    ``"exception"`` incident -- same budget, same bookkeeping as the
    supervised workers, minus the process machinery (an in-process
    segfault or hang is not survivable, so chaos fires with
    ``allow_kill=False``).  ``stop()`` is polled between faults.
    """
    retries = max(1, retries or DEFAULT_RETRIES)
    records = {}
    incidents = []
    requeued = 0
    done = 0
    total = len(items)
    drained = False
    for index, spec in items:
        if stop is not None and stop():
            drained = True
            break
        attempt = 0
        while True:
            try:
                if chaos is not None:
                    chaos.fire(index, attempt, allow_kill=False)
                record = runner.run_one(sim, spec)
            except Exception as exc:
                attempt += 1
                if attempt >= retries:
                    incident = Incident(
                        index, spec, "exception",
                        f"{type(exc).__name__}: {exc}", attempts=attempt)
                    incidents.append(incident)
                    if on_incident is not None:
                        on_incident(incident)
                    done += 1
                    if progress is not None:
                        progress(done, total, None)
                    break
                requeued += 1
                continue
            records[index] = record
            if on_record is not None:
                on_record(index, record)
            done += 1
            if progress is not None:
                progress(done, total, record)
            break
    return records, incidents, requeued, drained


def run_in_process(sim, runner, items, retries=DEFAULT_RETRIES,
                   chaos=None, progress=None, on_record=None,
                   on_incident=None, stop=None):
    """In-process execution with the lane engine when it applies.

    The lane path (:meth:`~repro.injection.campaign
    .FaultRunner.uses_lanes`) runs the whole batch through the lane
    engine, which has no per-fault retry boundary -- so it is used
    exactly when no chaos is configured, and an exception there
    propagates as it always did.  Everything else goes through
    :func:`run_serial_supervised`.
    """
    if chaos is None and runner.uses_lanes(sim, len(items)):
        if stop is not None and stop():
            return {}, [], 0, True
        records = {}
        batch = runner.run_many(sim, [spec for _, spec in items])
        for done, ((index, _), record) in enumerate(zip(items, batch), 1):
            records[index] = record
            if on_record is not None:
                on_record(index, record)
            if progress is not None:
                progress(done, len(items), record)
        return records, [], 0, False
    return run_serial_supervised(
        sim, runner, items, retries=retries, chaos=chaos,
        progress=progress, on_record=on_record, on_incident=on_incident,
        stop=stop,
    )
