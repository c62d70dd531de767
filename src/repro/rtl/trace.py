"""Signal tracing for the RT-level model (the NCSIM/Safety-Verifier part).

The paper's RTL flow observes *design signals*: every simulation records
the signal activity of the design, and safeness is computed by comparing
a run's signal trace against the golden trace.  This module reproduces
that machinery:

* every cycle, the named flop groups of the pipeline are sampled;
* value changes are appended to a VCD-style change log (exportable with
  :meth:`SignalTrace.to_vcd`);
* a rolling CRC of the change stream is maintained -- two runs with equal
  CRCs toggled exactly the same flops on exactly the same cycles, which is
  the strict signal-level safeness criterion (ablation A5).

This is also why RTL simulation is slow: the per-cycle sampling cost is
what separates the two rows of the paper's Table II.  The unit is optional
(``RTLConfig.trace_signals``); campaigns may disable it for speed, and
EXPERIMENTS.md reports throughput both ways.
"""

import zlib


def _uop_signature(uop):
    """Flop-level contents of one pipeline latch entry."""
    if uop is None:
        return b"-"
    parts = [
        uop.pc.to_bytes(4, "little"),
        int(uop.inst.op).to_bytes(1, "little"),
        b"1" if uop.cond_pass else b"0",
    ]
    for arch in sorted(uop.results):
        parts.append(bytes((arch,)))
        parts.append((uop.results[arch] & 0xFFFFFFFF).to_bytes(4, "little"))
    for addr, size, value in uop.store_pending:
        parts.append(addr.to_bytes(4, "little"))
        parts.append(bytes((size,)))
        parts.append((value & 0xFFFFFFFF).to_bytes(4, "little"))
    return b"|".join(parts)


class SignalTrace:
    """Change-detecting sampler over the RT-level core's flop groups."""

    __slots__ = ("previous", "changes", "max_changes", "crc", "samples",
                 "toggles")

    def __init__(self, max_changes=2_000_000):
        self.previous = {}
        self.changes = []       # (cycle, signal, bitstring) tuples
        self.max_changes = max_changes
        self.crc = 0
        self.samples = 0
        self.toggles = {}       # signal -> total bits toggled (activity)

    def groups(self, core):
        """Named flop groups sampled every cycle."""
        yield "pc", core.pc.to_bytes(4, "little")
        yield "rf", core.rf.regs.tobytes()
        yield "cpsr", bytes((core.rf.cpsr,))
        yield "retired_next_pc", core.retired_next_pc.to_bytes(4, "little")
        for name, latch in (
            ("f", core.fetch_buffer), ("d", core.decode_q),
            ("ex1", core.ex1), ("ex2", core.ex2), ("wb", core.wb),
        ):
            for i in range(4):
                uop = latch[i] if i < len(latch) else None
                yield f"{name}{i}", _uop_signature(uop)
        yield "mul", _uop_signature(core.mul_uop)
        yield "mul_cnt", bytes((core.mul_remaining & 0xFF,))
        yield "stall", (max(core.stall_until - core.cycle, 0)
                        & 0xFFFFFFFF).to_bytes(4, "little")
        yield "fstall", (max(core.fetch_stall_until - core.cycle, 0)
                         & 0xFFFFFFFF).to_bytes(4, "little")

    def sample(self, core):
        """Record all flop groups that changed this cycle.

        Like a VCD dumper, the change value is rendered to its bit-vector
        string eagerly, and per-signal toggle counts (the activity numbers
        a power-estimation flow consumes) are accumulated from the XOR of
        the old and new values.  This per-cycle work is the honest cost of
        RT-level simulation and the source of Table II's throughput gap.
        """
        self.samples += 1
        cycle = core.cycle
        previous = self.previous
        toggles = self.toggles
        for name, blob in self.groups(core):
            old = previous.get(name)
            if old != blob:
                previous[name] = blob
                self.crc = zlib.crc32(blob, self.crc ^ cycle) & 0xFFFFFFFF
                new_int = int.from_bytes(blob, "little")
                old_int = int.from_bytes(old, "little") if old else 0
                toggles[name] = (
                    toggles.get(name, 0) + (new_int ^ old_int).bit_count()
                )
                if len(self.changes) < self.max_changes:
                    width = max(len(blob), 4) * 8
                    self.changes.append(
                        (cycle, name, format(new_int, f"0{width}b"))
                    )

    def to_vcd(self, title="repro-rtl"):
        """Render the change log as a (simplified) VCD text document."""
        names = sorted({name for _, name, _ in self.changes})
        codes = {name: chr(33 + i) for i, name in enumerate(names)}
        lines = [
            f"$comment {title} $end",
            "$timescale 1ns $end",
            "$scope module core $end",
        ]
        for name in names:
            lines.append(f"$var wire 32 {codes[name]} {name} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        last_cycle = None
        for cycle, name, bits in self.changes:
            if cycle != last_cycle:
                lines.append(f"#{cycle}")
                last_cycle = cycle
            lines.append(f"b{bits} {codes[name]}")
        return "\n".join(lines) + "\n"

    def snapshot(self):
        return (dict(self.previous), self.crc, self.samples,
                len(self.changes), dict(self.toggles))

    def restore(self, state):
        previous, crc, samples, nchanges, toggles = state
        self.previous = dict(previous)
        self.crc = crc
        self.samples = samples
        del self.changes[nchanges:]
        self.toggles = dict(toggles)
