"""Functional data-path logic shared by both CPU models.

The paper's SS II-B argues that cross-level comparison of *storage* faults is
meaningful because the surrounding logic is functionally identical in the
RTL and microarchitectural models.  We make that premise literal: both of
our simulators execute their ALU, shifter and multiplier through these
functions, so any divergence between the models comes from structure and
timing -- never from data-path semantics.

All values are 32-bit unsigned Python ints; helpers mask as needed.
"""

from repro.isa.flags import Flags
from repro.isa.instructions import Op, ShiftKind

MASK32 = 0xFFFFFFFF


def u32(value):
    return value & MASK32


def s32(value):
    """Interpret a 32-bit value as signed."""
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


_LSL, _LSR, _ASR, _ROR = (ShiftKind.LSL, ShiftKind.LSR, ShiftKind.ASR,
                          ShiftKind.ROR)


def barrel_shift(value, kind, amount, carry_in):
    """Apply the barrel shifter.  Returns ``(result, carry_out)``.

    Follows ARM semantics for the common cases used by the assembler
    (amount 0..31 for immediate shifts, 0..255 for register shifts).
    """
    value = u32(value)
    amount &= 0xFF
    if amount == 0:
        return value, carry_in
    if kind == _LSL:
        if amount > 32:
            return 0, False
        if amount == 32:
            return 0, bool(value & 1)
        carry = bool((value >> (32 - amount)) & 1)
        return u32(value << amount), carry
    if kind == _LSR:
        if amount > 32:
            return 0, False
        if amount == 32:
            return 0, bool(value >> 31)
        carry = bool((value >> (amount - 1)) & 1)
        return value >> amount, carry
    if kind == _ASR:
        if amount >= 32:
            filled = MASK32 if value & 0x80000000 else 0
            return filled, bool(value >> 31)
        carry = bool((value >> (amount - 1)) & 1)
        return u32(s32(value) >> amount), carry
    if kind == _ROR:
        amount %= 32
        if amount == 0:
            return value, bool(value >> 31)
        result = u32((value >> amount) | (value << (32 - amount)))
        return result, bool(result >> 31)
    raise ValueError(f"bad shift kind {kind}")


def add_with_carry(a, b, carry_in):
    """ARM AddWithCarry: returns ``(result, carry_out, overflow)``.

    Signed overflow is the sign rule: both addends share a sign the
    result does not.
    """
    a &= MASK32
    b &= MASK32
    total = a + b + carry_in
    result = total & MASK32
    return (result, total > MASK32,
            bool((a ^ result) & (b ^ result) & 0x80000000))


#: Arithmetic data-processing ops (immediate forms normalised to
#: register forms by the caller) -> ``(swap operands, invert the second,
#: carry in)``; a ``None`` carry in is the C flag.
_ARITH = {
    Op.SUB: (False, True, True), Op.CMP: (False, True, True),
    Op.RSB: (True, True, True), Op.ADD: (False, False, False),
    Op.CMN: (False, False, False), Op.ADC: (False, False, None),
    Op.SBC: (False, True, None),
}
#: Logical data-processing ops -> result function (C from the shifter).
_LOGICAL = {
    Op.AND: int.__and__, Op.TST: int.__and__, Op.EOR: int.__xor__,
    Op.TEQ: int.__xor__, Op.ORR: int.__or__,
    Op.BIC: lambda a, b: a & (b ^ MASK32), Op.MOV: lambda a, b: b,
    Op.MVN: lambda a, b: b ^ MASK32,
}


def dp_compute(op, rn_value, op2_value, flags, shifter_carry):
    """Execute one data-processing operation.

    ``op`` must be a register-form :class:`Op` (callers normalise the
    immediate forms first).  Returns ``(result, Flags)`` where the flags are
    the values the operation *would* set (the caller applies them only when
    the instruction has the S bit or is a compare).
    """
    rn_value &= MASK32
    op2_value &= MASK32
    arith = _ARITH.get(op)
    if arith is not None:
        swap, invert, carry_in = arith
        a, b = (op2_value, rn_value) if swap else (rn_value, op2_value)
        result, carry, overflow = add_with_carry(
            a, b ^ MASK32 if invert else b,
            flags.c if carry_in is None else carry_in)
    else:
        logical = _LOGICAL.get(op)
        if logical is None:
            raise ValueError(f"not a data-processing op: {op!r}")
        result = logical(rn_value, op2_value)
        carry = shifter_carry
        overflow = flags.v
    return result, Flags(result >= 0x80000000, result == 0, carry, overflow)


_MLA = Op.MLA


def multiply(op, rn_value, rm_value, ra_value):
    """MUL / MLA (low 32 bits, ARM semantics)."""
    product = u32(rn_value) * u32(rm_value)
    if op == _MLA:
        product += u32(ra_value)
    return u32(product)
