"""Common simulation fault/exception model.

All three models (reference interpreter, microarchitectural simulator and
RT-level simulator) signal abnormal execution through :class:`SimFault`.
The fault-injection classifier maps these onto the paper's *Unsafe*
category (they are detectable errors -- crashes/DUEs -- rather than silent
corruptions).
"""


class SimFault(Exception):
    """An architectural exception raised while simulating.

    Attributes:
        kind: one of ``undefined-inst``, ``mem-fault``, ``align-fault``,
            ``syscall-error``, ``halt-trap``.
        detail: free-form human-readable context.
        addr: program counter (or effective address) involved, if known.
    """

    def __init__(self, kind, detail="", addr=None):
        self.kind = kind
        self.detail = detail
        self.addr = addr
        where = f" at {addr:#010x}" if addr is not None else ""
        super().__init__(f"{kind}{where}: {detail}" if detail else kind + where)


class SimTimeout(Exception):
    """The simulation exceeded its cycle/instruction watchdog."""

    def __init__(self, limit, what="cycles"):
        self.limit = limit
        super().__init__(f"watchdog expired after {limit} {what}")


class ExecutionError(ValueError):
    """A campaign execution knob is invalid (start method, chaos spec,
    retry budget...).

    Subclasses :class:`ValueError` so callers that historically caught
    ``ValueError`` from :func:`repro.injection.executor
    .resolve_start_method` keep working; the CLI catches it to print a
    friendly one-liner instead of a traceback.
    """


class ScenarioError(ValueError):
    """A scenario spec problem, always naming the offending field."""

    def __init__(self, field, problem, hint=None):
        self.field = field
        self.problem = problem
        message = f"[{field}] {problem}"
        if hint:
            message += f" ({hint})"
        super().__init__(message)


class CampaignInterrupted(RuntimeError):
    """A campaign was stopped by SIGINT/SIGTERM after a graceful drain.

    Raised *after* every in-flight fault has been flushed to the
    campaign store (when one is attached), so the store is guaranteed
    resumable.  ``done``/``total`` count fault indices persisted vs.
    sampled; ``signame`` is the signal that triggered the drain.
    """

    def __init__(self, done, total, signame="SIGINT", stored=False):
        self.done = done
        self.total = total
        self.signame = signame
        #: Whether a campaign store holds the drained records.
        self.stored = stored
        hint = ("; resume with --resume" if stored
                else "; no store attached, progress was not persisted")
        super().__init__(
            f"campaign interrupted by {signame}: {done}/{total} faults "
            f"completed{hint}"
        )
