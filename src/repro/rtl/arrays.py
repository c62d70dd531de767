"""Bit-accurate storage arrays of the RT-level design.

The register-file macro of an A9-class design holds more than the 16
user-mode registers: the banked-mode copies (FIQ/IRQ/SVC/ABT/UND) and the
spare slots that back the core's limited renaming share the same SRAM/flop
array.  An RTL injector targets the *whole* array -- which is also what
makes the RT-level register-file population equivalent to the
microarchitectural model's 56-entry physical register file (the paper's
"equivalent configurations of the hardware structures", SS I).  Bare-metal
user-mode execution reads and writes only the first 16 entries; faults in
the banked/spare entries are architecturally masked, at both levels.
"""

import numpy as np

from repro.isa.flags import Flags

#: Size of the register-file macro (matches Table I's physical RF).
RF_MACRO_ENTRIES = 56


class RTLRegisterFile:
    """Register-file macro (user regs + banked/spare entries) + CPSR."""

    __slots__ = ("entries", "regs", "cpsr", "listener", "flag_listener")

    def __init__(self, entries=RF_MACRO_ENTRIES):
        self.entries = entries
        self.regs = np.zeros(entries, dtype=np.uint32)
        self.cpsr = 0  # packed NZCV
        #: Optional access hook ``(index, is_write)`` per register
        #: read/write; the ``rtl`` backend's lifetime-trace capture.
        self.listener = None
        #: Optional access hook ``(is_write,)`` whenever the pipeline
        #: consults (``flags()``) or replaces (``set_flags()``) the
        #: CPSR flops as a unit.
        self.flag_listener = None

    def read(self, index):
        if self.listener is not None:
            self.listener(index, False)
        return int(self.regs[index])

    def write(self, index, value):
        if self.listener is not None:
            self.listener(index, True)
        self.regs[index] = value & 0xFFFFFFFF

    def flags(self):
        if self.flag_listener is not None:
            self.flag_listener(False)
        return Flags.unpack(self.cpsr)

    def set_flags(self, flags):
        if self.flag_listener is not None:
            self.flag_listener(True)
        self.cpsr = flags.pack()

    # -- fault-injection interface --------------------------------------

    def bit_count(self, include_cpsr=False):
        return self.entries * 32 + (4 if include_cpsr else 0)

    def flip_bit(self, bit_index):
        if bit_index >= self.entries * 32:
            self.cpsr ^= 1 << (bit_index - self.entries * 32)
            return
        reg, bit = divmod(bit_index, 32)
        self.regs[reg] ^= np.uint32(1 << bit)

    def snapshot(self):
        return (self.regs.copy(), self.cpsr)

    def restore(self, state):
        regs, cpsr = state
        self.regs = regs.copy()
        self.cpsr = cpsr
