"""Lifetime-aware fault pruning (the campaign's largest accelerator).

The paper's central cost is the injection campaign itself: one
simulation per sampled fault, repeated per structure, workload and
modeling tier.  A large fraction of those simulations is provably
redundant: a flipped bit that is *overwritten before it is ever read*
cannot influence anything -- the overwrite erases the corruption and
the machine is bit-identical to the golden run from that instant on.
Such faults are Masked *by construction* and need no simulation at all
(the MeRLiN-style fault-list pruning of the GeFIN lineage).

This package holds the two pieces:

* :class:`~repro.prune.trace.LifetimeTrace` -- the golden run's
  per-cell read/write event log, captured by the backend listeners the
  :class:`~repro.sim.base.SimulatorBase` ``trace_accesses`` hook
  installs (arch: the interpreter's register file and CPSR; uarch: the
  physical register file; rtl: the register-file macro and CPSR flops);
* :class:`~repro.prune.pruner.FaultPruner` -- consulted by the
  campaign engine before the faulty phase: dead-interval faults are
  classified Masked without simulation (exact, never statistical).

A third capture, :class:`~repro.prune.trace.RetiredPCTrace`, records
just the golden retired-instruction stream -- the only instrumentation
``prune_mode="static"`` needs: the static dataflow engine
(:mod:`repro.staticcheck`) proves a subset of the same verdicts from
the program text alone, anchored to the injection instant through this
stream.

See DESIGN.md ("Lifetime-aware fault pruning" and "Static analysis")
for the soundness arguments and the exclusions that keep the pruning
exact.
"""

from repro.prune.pruner import FaultPruner, PRUNE_MODES
from repro.prune.trace import LifetimeTrace, RetiredPCTrace

__all__ = ["FaultPruner", "LifetimeTrace", "PRUNE_MODES",
           "RetiredPCTrace"]
