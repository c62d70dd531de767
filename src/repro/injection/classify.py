"""Fault-effect classification.

The paper's top-level dichotomy (SS IV-A)::

    Masked/Safe : no deviation observed at the observation point
    Unsafe      : any mismatch against the fault-free simulation

We additionally keep the finer-grained classes every SFI framework
reports, and map them onto Safe/Unsafe:

========== ======= ==========================================
class      safe?   meaning
========== ======= ==========================================
MASKED     yes     observation channel identical to golden
SDC        no      program output differs silently
DUE        no      architectural exception / crash detected
HANG       no      watchdog expired (lockup)
MISMATCH   no      pinout/signal trace deviated from golden
LATENT     no      hardware state corrupted, output clean
                   (HVF-style "arch" observation point only)
========== ======= ==========================================

:func:`classify_outcome` is the one rule set: every faulty run, scalar
or lane walk (:mod:`repro.batch`), ends in
:meth:`~repro.injection.campaign.FaultRunner.inject_and_classify`, which
calls it, so a new observation mode is one edit.
"""

import enum

from repro.sim.base import RunStatus

#: ``FaultRecord.detail`` strings -- part of the bit-identity contract
#: (stores intern them), so each is spelled exactly once.
AFTER_PROGRAM_END = "after program end"
RECONVERGED = "re-converged with golden"
WATCHDOG_EXPIRED = "watchdog expired"
OUTPUT_DIFFERS = "program output differs"
PREFIX_CLEAN = "window expired, prefix clean"
PREFIX_DIFFERS = "output prefix differs"
HW_STATE_DIFFERS = "hardware state differs"
PINOUT_DEVIATES = "pinout trace deviates"


class FaultClass(enum.Enum):
    MASKED = "masked"
    SDC = "sdc"
    DUE = "due"
    HANG = "hang"
    MISMATCH = "mismatch"
    LATENT = "latent"

    @property
    def safe(self):
        return self is FaultClass.MASKED

    @property
    def unsafe(self):
        return not self.safe


class FaultRecord:
    """Outcome of one injection run (or of one pruning decision)."""

    __slots__ = ("fault", "fclass", "detail", "sim_cycles", "wall_seconds",
                 "replay_cycles", "pruned")

    def __init__(self, fault, fclass, detail="", sim_cycles=0,
                 wall_seconds=0.0, replay_cycles=0, pruned=""):
        self.fault = fault
        self.fclass = fclass
        self.detail = detail
        self.sim_cycles = sim_cycles
        self.wall_seconds = wall_seconds
        #: Pre-injection cycles this run re-simulated to reach the
        #: fault instant (restore-to-injection distance).  Warm starts
        #: keep this below the checkpoint stride; cold starts pay the
        #: whole prefix.  Hardware-independent, so benches use the
        #: warm/cold ratio of (replay + post-injection) cycles as the
        #: deterministic speedup metric.
        self.replay_cycles = replay_cycles
        #: How the classification was reached without simulation:
        #: ``""`` -- this fault was simulated; ``"dead"`` -- the golden
        #: lifetime trace proved it Masked (dead-interval pruning);
        #: ``group`` -- read-only legacy: inherited from an
        #: equivalence-group representative by a prune mode since
        #: removed, kept so older stores load; ``"static"`` -- the
        #: static dataflow engine proved it Masked from the program
        #: text and the retired-PC stream alone
        #: (``prune_mode="static"``, :mod:`repro.staticcheck`).
        self.pruned = pruned

    @property
    def simulated(self):
        """Whether this fault cost a simulation run."""
        return not self.pruned

    def __repr__(self):
        tag = f" [{self.pruned}]" if self.pruned else ""
        return f"FaultRecord({self.fault!r} -> {self.fclass.value}{tag})"


class Incident:
    """A fault that could not be classified: quarantined, not counted.

    Produced by the supervised executor when one fault keeps killing or
    stalling its worker (or keeps raising in-process) after the retry
    budget is spent.  Incidents are *not* :class:`FaultRecord`\\ s -- they
    carry no classification and stay out of every statistic; they
    persist in the store's ``incidents.jsonl`` sidecar with
    ``disposition="error"`` so a resumed campaign skips the poison
    fault instead of re-dying on it.

    ``kind`` is how the fault failed: ``"crash"`` (worker process
    died), ``"hang"`` (batch deadline expired, worker killed) or
    ``"exception"`` (the run raised).  ``attempts`` counts executions
    spent on the fault before giving up.
    """

    __slots__ = ("index", "fault", "kind", "detail", "attempts")

    #: Every incident shares one disposition -- the store column that
    #: distinguishes quarantined faults from classified records.
    disposition = "error"

    def __init__(self, index, fault, kind, detail="", attempts=1):
        self.index = index
        self.fault = fault
        self.kind = kind
        self.detail = detail
        self.attempts = attempts

    def __repr__(self):
        return (
            f"Incident(#{self.index} {self.fault!r} {self.kind}"
            f" after {self.attempts} attempts)"
        )


def compare_traces(golden_keys, faulty_keys, limit=None):
    """Content+order pinout comparison.

    Returns True when the faulty trace is a consistent prefix-match of the
    golden trace (the faulty run may be shorter because of the
    post-injection window).  ``limit`` bounds how many golden entries the
    faulty run was given the chance to produce.
    """
    span = len(faulty_keys) if limit is None else min(len(faulty_keys),
                                                      limit)
    if len(faulty_keys) > len(golden_keys):
        return False
    for i in range(span):
        if faulty_keys[i] != golden_keys[i]:
            return False
    return True


def classify_outcome(status, observation, golden, output=b"",
                     hw_state=None, pinout_suffix=None, trace_base=0,
                     machine_fault=None):
    """``(FaultClass, detail)`` of one faulty run that stopped with
    ``status`` (SS IV-A: any deviation at the observation point is
    Unsafe).

    ``golden`` is the campaign's golden payload (``output``,
    ``hw_state``, ``pinout_keys``); ``output`` is the faulty program
    output and ``machine_fault`` the latched fault of a ``FAULT`` stop.
    ``hw_state`` and ``pinout_suffix`` are zero-argument callables --
    the faulty :func:`~repro.injection.observation
    .hardware_state_digest` and the faulty pinout keys from
    ``trace_base`` on -- called only under the observation point that
    reads them, because both cost a full memory image or key list.
    """
    if status is RunStatus.FAULT:
        return FaultClass.DUE, str(machine_fault)
    if status is RunStatus.TIMEOUT:
        return FaultClass.HANG, WATCHDOG_EXPIRED
    if observation == "software":
        if status is RunStatus.EXITED:
            if output == golden["output"]:
                return FaultClass.MASKED, ""
            return FaultClass.SDC, OUTPUT_DIFFERS
        # Window expired before program end: compare the prefix.
        if golden["output"].startswith(output):
            return FaultClass.MASKED, PREFIX_CLEAN
        return FaultClass.SDC, PREFIX_DIFFERS
    if observation == "arch":
        # HVF-style layer boundary: output first, then latent state.
        if output != golden["output"]:
            return FaultClass.SDC, OUTPUT_DIFFERS
        if hw_state() != golden["hw_state"]:
            return FaultClass.LATENT, HW_STATE_DIFFERS
        return FaultClass.MASKED, ""
    # Pinout observation: strictly the write-back/refill traffic at the
    # core pins, as in the paper.  Silent corruption that never reaches
    # the pins is invisible here -- that blindness is the paper's
    # Fig. 2 finding, so the observation stays pure.
    golden_suffix = golden["pinout_keys"][trace_base:]
    faulty_suffix = pinout_suffix()
    if status is RunStatus.EXITED:
        match = faulty_suffix == golden_suffix
    else:
        match = compare_traces(golden_suffix, faulty_suffix)
    if match:
        return FaultClass.MASKED, ""
    return FaultClass.MISMATCH, PINOUT_DEVIATES
