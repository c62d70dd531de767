"""Supervised campaign execution: crash-safe workers, quarantine, drain.

The process-pool of PR 1 was fire-and-forget: one worker OOM-kill or
native segfault lost the whole sweep, a hung run stalled it forever,
and Ctrl-C left the campaign store wherever the last flush happened to
land.  This module replaces the pool with an explicitly supervised
worker set:

* **crash detection** -- each worker is a plain ``Process`` with its
  own task and result pipes; the supervisor polls liveness, respawns
  dead workers and re-shards their in-flight batch (with capped
  exponential backoff) instead of deadlocking on a result that will
  never come;
* **lifetime** -- one :class:`WorkerSupervisor` outlives the campaigns
  it serves (a scenario run opens one): workers are spawned lazily and
  reused, each golden payload is shipped once per (worker, golden run)
  and re-shipped to a respawned worker, and :meth:`WorkerSupervisor
  .close` leaves no process behind;
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

import copy
import difflib
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from multiprocessing import connection

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

def _worker_main(tasks, results):
    """One supervised worker: hold goldens, serve captures and batches
    until told to stop (or until the supervisor's end of ``tasks``
    closes).

    Tasks arrive on the ``tasks`` pipe:

    * ``("golden", token, sim_factory, golden)`` -- a golden payload
      (the read-only golden data a :class:`~repro.injection.campaign
      .FaultRunner` needs); the worker builds one simulator for it and
      keeps both until ``("forget", token)``;
    * ``("capture", task_id, token, campaign)`` -- run the campaign's
      golden phase here (:meth:`~repro.injection.campaign.Campaign
      .capture_golden`), keep the resulting payload as golden
      ``token`` and send the capture back;
    * ``("batch", batch_id, token, runner, chaos, entries)`` -- run
      ``entries`` (``(fault_index, spec, attempt)``) against golden
      ``token`` with the cell's golden-less runner and chaos spec;
    * ``None`` -- shut down.

    Results go back on the worker's own ``results`` pipe as
    ``("golden", ...)``, ``("done", ...)`` or ``("error", ...)`` -- a
    worker survives an in-run exception and keeps serving (the
    supervisor decides about retries), so only process death or a
    deadline kill costs a respawn.
    """
    # The parent broadcasts SIGINT to the group on Ctrl-C; workers must
    # outlive it so the drain can finish.  SIGTERM keeps its default
    # (die), which is exactly what the crash-recovery path exercises.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    goldens = {}
    while True:
        try:
            task = tasks.recv()
        except EOFError:
            return
        if task is None:
            return
        kind = task[0]
        if kind == "golden":
            _, token, sim_factory, golden = task
            goldens[token] = (sim_factory(), golden)
            continue
        if kind == "forget":
            goldens.pop(task[1], None)
            continue
        if kind == "capture":
            _, task_id, token, campaign = task
            try:
                sim, golden, reply = campaign.capture_golden()
                goldens[token] = (sim, golden)
                message = ("golden", task_id, golden, reply)
            except Exception as exc:
                message = ("error", task_id, f"{type(exc).__name__}: {exc}")
            results.send(message)
            continue
        _, batch_id, token, runner, chaos, entries = task
        try:
            sim, runner.golden = goldens[token]
            base_cycles = runner.batch_cycles
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
            message = ("done", batch_id, records,
                       runner.batch_cycles - base_cycles)
        except Exception as exc:
            message = ("error", batch_id, f"{type(exc).__name__}: {exc}")
        results.send(message)


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------

class FaultStream:
    """One campaign's faulty runs on the pool, and what came back.

    ``runner`` is the campaign's :class:`~repro.injection.campaign
    .FaultRunner`, whose golden payload the workers hold as ``token``;
    every batch carries the runner without its golden.  ``retries``,
    the deadline rule (an explicit ``batch_timeout``, else derived from
    ``fault_timeout_hint`` seconds per fault), ``chaos`` and the
    callbacks are the campaign's own, so several streams can share one
    pool and keep their meaning: ``progress(done, total, record)``,
    ``on_record(index, record)`` (exactly once per classified fault),
    ``on_incident(incident)`` and ``on_done(stream)`` (once every fault
    is resolved).  Fault indices -- and so chaos indices -- are the
    campaign's own.
    """

    def __init__(self, token, runner, retries=DEFAULT_RETRIES,
                 batch_timeout=None, fault_timeout_hint=None, chaos=None,
                 progress=None, on_record=None, on_incident=None,
                 on_done=None):
        self.token = token
        self.runner = runner
        self.shell = copy.copy(runner)
        self.shell.golden = None
        self.retries = max(1, retries or DEFAULT_RETRIES)
        self.batch_timeout = batch_timeout
        self.hint = fault_timeout_hint or 0.0
        self.chaos = chaos
        self.progress = progress
        self.on_record = on_record
        self.on_incident = on_incident
        self.on_done = on_done
        #: Fault index -> FaultRecord of every fault that classified.
        self.records = {}
        #: Quarantined faults (:class:`~repro.injection.classify
        #: .Incident`).
        self.incidents = []
        #: Fault executions re-dispatched after a failure.
        self.requeued = 0
        self.failures = {}
        self.done = 0
        self.total = 0

    def resolved(self, count, record):
        """``count`` more faults are resolved; ``record`` the last."""
        self.done += count
        if self.progress is not None:
            self.progress(self.done, self.total, record)
        if self.done == self.total and self.on_done is not None:
            self.on_done(self)


class _Batch:
    """One unit of fault dispatch: entries plus retry/deadline state."""

    __slots__ = ("id", "stream", "entries", "not_before", "deadline")

    #: Dispatch rank: captures go first, they unblock fault work.
    RANK = 1

    def __init__(self, batch_id, stream, entries, not_before=0.0):
        self.id = batch_id
        self.stream = stream
        self.entries = entries
        #: Earliest monotonic instant this batch may be dispatched
        #: (retry backoff).
        self.not_before = not_before
        #: Monotonic instant the batch is declared hung (set at
        #: dispatch).
        self.deadline = 0.0

    @property
    def token(self):
        return self.stream.token

    def message(self):
        stream = self.stream
        return ("batch", self.id, stream.token, stream.shell,
                stream.chaos, self.entries)

    def timeout(self):
        stream = self.stream
        if stream.batch_timeout is not None:
            return stream.batch_timeout
        return max(_MIN_BATCH_TIMEOUT, stream.hint * len(self.entries) * 8)


class _Capture:
    """One golden capture task: a campaign whose golden phase a worker
    runs and keeps as ``token``."""

    __slots__ = ("id", "token", "campaign", "on_golden", "attempts",
                 "not_before", "deadline")

    RANK = 0

    def __init__(self, task_id, token, campaign, on_golden, attempts=0):
        self.id = task_id
        self.token = token
        self.campaign = campaign
        self.on_golden = on_golden
        self.attempts = attempts
        self.not_before = 0.0
        self.deadline = math.inf

    def message(self):
        return ("capture", self.id, self.token, self.campaign)

    def timeout(self):
        # A golden run has no deadline: only a dead worker fails it.
        return math.inf


class _Worker:
    """Parent-side handle of one worker process and its two pipes."""

    __slots__ = ("id", "proc", "tasks", "results", "goldens")

    def __init__(self, worker_id, proc, tasks, results):
        self.id = worker_id
        self.proc = proc
        self.tasks = tasks
        self.results = results
        #: Golden tokens shipped to (or captured by) this process since
        #: it was spawned.
        self.goldens = set()


def golden_token(golden):
    """The pool's name for a golden payload captured in the parent:
    the identity of its checkpoint cache, which every campaign sharing
    the golden run shares (the pool pins the cache while the token
    lives).  Goldens captured by a worker get a token from
    :meth:`WorkerSupervisor.capture` instead."""
    return id(golden["cache"])


class WorkerSupervisor:
    """A supervised pool of worker processes that outlives campaigns.

    One pool serves every campaign of a scenario run
    (:class:`~repro.scenario.runner.ScenarioRunner` opens it, a lone
    campaign opens a one-shot one): workers are spawned lazily, up to
    the ``jobs`` asked for, and closed by :meth:`close`.  Work is
    queued, then driven by one event loop (:meth:`serve`): golden
    captures (:meth:`capture`) and the fault batches of any number of
    :class:`FaultStream`\\ s (:meth:`submit`).  A golden payload is
    shipped once per (worker, golden run) -- a worker that captured a
    golden holds it already; a batch carries only its small per-cell
    runner config.  A respawned worker starts empty and is re-shipped
    what it needs.

    Unlike ``multiprocessing.Pool``, every task is tracked from
    dispatch to completion: a worker that dies or overruns its deadline
    is respawned and its work retried, so a campaign can never deadlock
    waiting on a result that no process will produce.  Each worker has
    its own task and result pipes, so a killed worker can never wedge a
    lock the others need.
    """

    def __init__(self, start_method=None):
        self.start_method = start_method
        self._ctx = None
        self._workers = {}
        #: token -> ``(sim_factory, golden)`` a worker may need shipped
        #: (holding the golden pins the token's checkpoint cache).
        self._goldens = {}
        #: Queued captures and batches, and worker id -> ``(task,
        #: worker)`` for the ones running.
        self._pending = []
        self._inflight = {}
        self._next_task_id = 0
        self._next_worker_id = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- workers -------------------------------------------------------

    def _spawn(self):
        if self._ctx is None:
            self._ctx = multiprocessing.get_context(
                resolve_start_method(self.start_method))
        self._next_worker_id += 1
        task_r, tasks = self._ctx.Pipe(duplex=False)
        results, result_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(task_r, result_w),
            name=f"repro-worker-{self._next_worker_id}",
            daemon=True,
        )
        proc.start()
        # Only the worker keeps these ends: its death then reads as EOF
        # here and a send to it fails instead of blocking.
        task_r.close()
        result_w.close()
        worker = _Worker(self._next_worker_id, proc, tasks, results)
        self._workers[worker.id] = worker
        return worker

    def _ship(self, worker, token):
        """Send golden ``token`` to ``worker``: once per worker."""
        worker.tasks.send(("golden", token) + self._goldens[token])
        worker.goldens.add(token)

    def _dispatch(self, worker, task):
        """Hand ``task`` to ``worker``; a capture task is the golden's
        first holder, so only batches may need a shipment."""
        if isinstance(task, _Batch) and task.token not in worker.goldens:
            self._ship(worker, task.token)
        worker.tasks.send(task.message())

    def _retire(self, worker):
        """Stop tracking ``worker``, killing it if it still runs."""
        self._workers.pop(worker.id, None)
        self._kill(worker.proc)
        worker.tasks.close()
        worker.results.close()

    @staticmethod
    def _kill(proc):
        if proc.is_alive():
            proc.terminate()
            proc.join(0.5)
        if proc.is_alive():
            proc.kill()
            proc.join(0.5)
        proc.join(0.0)

    def forget(self, token):
        """Drop golden ``token`` (see :func:`golden_token`): no later
        campaign will use it, here or in any worker holding it."""
        if self._goldens.pop(token, None) is None:
            return
        for worker in list(self._workers.values()):
            if token in worker.goldens:
                worker.goldens.discard(token)
                try:
                    worker.tasks.send(("forget", token))
                except OSError:
                    self._retire(worker)

    def close(self):
        """Shut every worker down (politely, then by force)."""
        workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.tasks.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 1.0
        for worker in workers:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            self._retire(worker)
        self._goldens.clear()
        self._pending.clear()
        self._inflight.clear()

    # -- queueing work -------------------------------------------------

    def _task_id(self):
        self._next_task_id += 1
        return self._next_task_id

    def publish(self, token, sim_factory, golden):
        """Make golden payload ``golden`` shippable as ``token``."""
        self._goldens.setdefault(token, (sim_factory, golden))

    def capture(self, campaign, on_golden):
        """Queue ``campaign``'s golden phase as a worker task and return
        the token the captured golden will go by.

        The capturing worker keeps the golden (as if shipped); the
        parent gets ``campaign.capture_golden()``'s reply through
        ``on_golden(token, reply)`` from inside :meth:`serve`, and the
        payload is published for shipping to other workers.  A worker
        that dies mid-capture costs a retry; a capture that raises, or
        dies ``DEFAULT_RETRIES`` times, raises here.
        """
        task_id = self._task_id()
        token = ("capture", task_id)
        self._pending.append(_Capture(task_id, token, campaign, on_golden))
        return token

    def submit(self, stream, entry_batches):
        """Queue ``stream``'s ``entry_batches`` (lists of ``(index,
        spec, attempt)``); :meth:`serve` runs them."""
        for entries in entry_batches:
            if entries:
                stream.total += len(entries)
                self._pending.append(
                    _Batch(self._task_id(), stream, list(entries)))

    # -- the supervision loop ------------------------------------------

    def serve(self, jobs, stop=None):
        """Run queued work on up to ``jobs`` workers until none is
        left -- including work the callbacks queue along the way.

        Returns True when ``stop()`` requested a drain: in-flight tasks
        were finished and flushed, everything queued (then or later)
        abandoned.
        """
        jobs = max(1, jobs)
        pending, inflight = self._pending, self._inflight
        drained = False
        try:
            while pending or inflight:
                now = time.monotonic()
                if stop is not None and not drained and stop():
                    drained = True
                if drained:
                    # Drain: finish what is running, abandon the queue.
                    pending.clear()
                # Reap workers that died while idle (nothing to retry).
                for worker in [w for w in self._workers.values()
                               if w.id not in inflight
                               and not w.proc.is_alive()]:
                    self._retire(worker)
                # Dispatch ready tasks onto idle (spawning) workers.
                for task in sorted((t for t in pending
                                    if t.not_before <= now),
                                   key=lambda t: (t.RANK, t.id)):
                    if len(inflight) >= jobs:
                        break
                    worker = self._idle_worker(task.token)
                    if worker is None:
                        if len(self._workers) >= jobs:
                            break
                        worker = self._spawn()
                    try:
                        self._dispatch(worker, task)
                    except OSError:
                        # Died between the liveness check and the send:
                        # nothing ran, so the task is not charged.
                        self._retire(worker)
                        continue
                    pending.remove(task)
                    task.deadline = now + task.timeout()
                    inflight[worker.id] = (task, worker)
                # Wait for the next event: a result, a deadline, or a
                # backoff expiry -- bounded so liveness checks and the
                # stop flag are polled regularly.
                horizon = [t.deadline for t, _ in inflight.values()]
                horizon += [t.not_before for t in pending]
                wait = _POLL_MAX
                if horizon:
                    wait = min(wait, max(min(horizon) - now, _POLL_MIN))
                ready = []
                if inflight:
                    ready = connection.wait(
                        [w.results for _, w in inflight.values()], wait)
                elif pending:
                    time.sleep(wait)
                for task, worker in [entry for entry in inflight.values()
                                     if entry[1].results in ready]:
                    try:
                        message = worker.results.recv()
                    except (EOFError, OSError):
                        continue  # it died: the liveness check fails it
                    if message[1] != task.id:  # pragma: no cover
                        continue
                    del inflight[worker.id]
                    self._receive(task, worker, message)
                # Liveness and deadlines for everything still in flight.
                now = time.monotonic()
                for task, worker in list(inflight.values()):
                    if not worker.proc.is_alive():
                        del inflight[worker.id]
                        self._retire(worker)
                        work = ("a golden capture"
                                if isinstance(task, _Capture)
                                else f"{len(task.entries)} fault(s)")
                        self._fail(task, "crash",
                                   f"worker died (exit code "
                                   f"{worker.proc.exitcode}) while "
                                   f"running {work}")
                    elif now >= task.deadline:
                        del inflight[worker.id]
                        self._retire(worker)
                        self._fail(task, "hang",
                                   f"batch overran its "
                                   f"{task.timeout():.1f}s deadline")
            return drained
        finally:
            # Only an exception leaves tasks in flight: their workers
            # are mid-run on work nobody will collect.
            for _, worker in list(inflight.values()):
                self._retire(worker)
            inflight.clear()
            pending.clear()

    def _idle_worker(self, token):
        """An idle live worker, preferring one holding golden ``token``."""
        idle = [w for w in self._workers.values()
                if w.id not in self._inflight and w.proc.is_alive()]
        return next((w for w in idle if token in w.goldens),
                    idle[0] if idle else None)

    def _receive(self, task, worker, message):
        """Fold one worker reply into its task's owner."""
        if isinstance(task, _Capture):
            if message[0] != "golden":
                raise RuntimeError(
                    f"golden capture of {task.campaign.workload} at "
                    f"{task.campaign.level} failed: {message[2]}")
            _, _, golden, reply = message
            self._goldens[task.token] = (task.campaign.sim_factory, golden)
            worker.goldens.add(task.token)
            task.on_golden(task.token, reply)
            return
        if message[0] != "done":
            self._fail(task, "exception", message[2])
            return
        _, _, batch_records, cycles = message
        stream = task.stream
        stream.runner.batch_cycles += cycles
        for (index, _, _), record in zip(task.entries, batch_records):
            stream.records[index] = record
            if stream.on_record is not None:
                stream.on_record(index, record)
        stream.resolved(len(batch_records), batch_records[-1])

    def _fail(self, task, kind, detail):
        """A task's execution failed: retry, bisect or quarantine."""
        if isinstance(task, _Capture):
            task.attempts += 1
            if task.attempts >= DEFAULT_RETRIES:
                raise RuntimeError(
                    f"golden capture of {task.campaign.workload} at "
                    f"{task.campaign.level} failed {task.attempts} "
                    f"times: {detail}")
            self._pending.append(task)
            return
        stream = task.stream
        for index, _, _ in task.entries:
            stream.failures[index] = stream.failures.get(index, 0) + 1
        if len(task.entries) > 1:
            # Bisect: halves re-run independently, so repeated
            # failures converge on the single offending fault while
            # its innocent batch-mates complete normally.
            mid = (len(task.entries) + 1) // 2
            self._requeue(stream, task.entries[:mid])
            self._requeue(stream, task.entries[mid:])
            return
        index, spec, _ = task.entries[0]
        if stream.failures[index] >= stream.retries:
            incident = Incident(index, spec, kind, detail,
                                attempts=stream.failures[index])
            stream.incidents.append(incident)
            if stream.on_incident is not None:
                stream.on_incident(incident)
            stream.resolved(1, None)
            return
        self._requeue(stream, task.entries)

    def _requeue(self, stream, entries):
        stream.requeued += len(entries)
        bumped = [(i, spec, attempt + 1) for i, spec, attempt in entries]
        worst = max(attempt for _, _, attempt in bumped)
        delay = min(_BACKOFF_BASE * (2 ** min(worst, 6)), _BACKOFF_CAP)
        self._pending.append(_Batch(self._task_id(), stream, bumped,
                                    time.monotonic() + delay))


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


def run_in_process(sim, stream, items, stop=None):
    """Run ``items`` (``(fault_index, spec)``) of ``stream`` on ``sim``
    in this process, with the lane engine when it applies, and fold
    the outcome into the stream.  Returns ``drained``.

    The lane path (:meth:`~repro.injection.campaign
    .FaultRunner.uses_lanes`) runs the whole batch through the lane
    engine, which has no per-fault retry boundary -- so it is used
    exactly when no chaos is configured, and an exception there
    propagates as it always did.  Everything else goes through
    :func:`run_serial_supervised`.
    """
    runner = stream.runner
    if stream.chaos is None and runner.uses_lanes(len(items)):
        if stop is not None and stop():
            return True
        batch = runner.run_many(sim, [spec for _, spec in items])
        for done, ((index, _), record) in enumerate(zip(items, batch), 1):
            stream.records[index] = record
            if stream.on_record is not None:
                stream.on_record(index, record)
            if stream.progress is not None:
                stream.progress(done, len(items), record)
        return False
    records, incidents, requeued, drained = run_serial_supervised(
        sim, runner, items, retries=stream.retries, chaos=stream.chaos,
        progress=stream.progress, on_record=stream.on_record,
        on_incident=stream.on_incident, stop=stop,
    )
    stream.records.update(records)
    stream.incidents.extend(incidents)
    stream.requeued += requeued
    return drained
