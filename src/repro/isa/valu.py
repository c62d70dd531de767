"""Vectorized data-path logic: numpy mirrors of :mod:`repro.isa.alu`.

The rtl lane backend (``repro.batch.rtl``) carries N faulty runs'
data paths as ``(N,)`` uint32 lane arrays through one pipeline.  Every
function here is the element-wise twin of its scalar namesake in
``alu.py`` / ``flags.py`` -- same ARM semantics, bit for bit -- so the
cross-lane equivalence suite can hold the batched path to the scalar
contract.

Two numpy pitfalls are handled explicitly, because they are exactly the
places where dtype promotion could silently diverge from scalar 32-bit
arithmetic:

* **shift amounts >= the dtype width are undefined behaviour** in
  numpy (as in C).  Every data-dependent shift first clamps its amount
  into range with a mask and computes the out-of-range cases through
  ``np.where`` arms, widening to uint64 where an in-range shift needs
  more headroom (LSL carry, ROR recombination);
* **signed interpretation**: ASR and the overflow flag never rely on a
  uint->int cast of out-of-range values; they widen to int64 first (the
  exact vector analogue of ``alu.s32``).

All value arrays are uint32; flag arrays are bool.  Scalar Python ints
broadcast fine for the common immediate cases.
"""

import numpy as np

from repro.isa.instructions import Op, ShiftKind

MASK32 = 0xFFFFFFFF

_LOGICAL = {Op.AND, Op.EOR, Op.ORR, Op.BIC, Op.MOV, Op.MVN, Op.TST, Op.TEQ}


def u32(values):
    """Coerce to a uint32 array (masking wider inputs)."""
    arr = np.asarray(values)
    if arr.dtype == np.uint32:
        return arr
    return (arr.astype(np.int64) & MASK32).astype(np.uint32)


def s32(values):
    """Interpret uint32 lanes as signed, widened to int64 (the vector
    analogue of ``alu.s32`` -- no narrowing cast is ever involved)."""
    wide = u32(values).astype(np.int64)
    return np.where(wide & 0x80000000, wide - 0x100000000, wide)


def barrel_shift(value, kind, amount, carry_in):
    """Vector barrel shifter: ``(result, carry_out)`` per lane.

    ``value`` is uint32 lanes; ``amount`` is a scalar int or a per-lane
    array (0..255 after the &0xFF the scalar path applies); ``carry_in``
    is a bool array.  Mirrors ``alu.barrel_shift`` exactly.
    """
    value = u32(value)
    amount = np.broadcast_to(
        np.asarray(amount, dtype=np.int64) & 0xFF, value.shape)
    carry_in = np.broadcast_to(np.asarray(carry_in, dtype=bool),
                               value.shape)
    wide = value.astype(np.uint64)
    # Clamped amounts keep every actual shift within the uint64 width;
    # the out-of-range arms are selected by np.where masks instead.
    mid = np.minimum(np.maximum(amount, 1), 32).astype(np.uint64)
    if kind == ShiftKind.LSL:
        # amount 1..32 through uint64 (<<32 needs the headroom); the
        # carry is bit(32 - amount), again safe on uint64 for mid<=32.
        shifted = (wide << mid) & MASK32
        mid_carry = ((wide >> (np.uint64(32) - mid)) & 1).astype(bool)
        result = np.where(amount > 32, 0, shifted).astype(np.uint32)
        carry = np.where(amount > 32, False, mid_carry)
    elif kind == ShiftKind.LSR:
        shifted = (wide >> mid).astype(np.uint32)
        mid_carry = ((wide >> (mid - np.uint64(1))) & 1).astype(bool)
        result = np.where(amount > 32, 0, shifted).astype(np.uint32)
        carry = np.where(amount > 32, False, mid_carry)
    elif kind == ShiftKind.ASR:
        signed = s32(value)
        sign = (value >> np.uint32(31)).astype(bool)
        mid31 = np.minimum(mid, np.uint64(31)).astype(np.int64)
        shifted = u32(signed >> mid31)  # int64 >> is arithmetic
        filled = np.where(sign, np.uint32(MASK32), np.uint32(0))
        mid_carry = ((wide >> (mid - np.uint64(1))) & 1).astype(bool)
        result = np.where(amount >= 32, filled, shifted)
        carry = np.where(amount >= 32, sign, mid_carry)
    elif kind == ShiftKind.ROR:
        rot = (amount % 32).astype(np.uint64)
        rot_safe = np.maximum(rot, 1)  # avoid the UB 32-0 shift
        rotated = (((wide >> rot_safe)
                    | (wide << (np.uint64(32) - rot_safe)))
                   & MASK32).astype(np.uint32)
        result = np.where(rot == 0, value, rotated)
        # alu: for rot==0 (amount multiple of 32) carry = bit31 of the
        # unchanged value; otherwise bit31 of the rotated result.
        carry = (result >> np.uint32(31)).astype(bool)
    else:
        raise ValueError(f"bad shift kind {kind}")
    # amount == 0: pass-through, carry_in preserved (all kinds).
    zero = amount == 0
    result = np.where(zero, value, result)
    carry = np.where(zero, carry_in, carry)
    return result, carry


def add_with_carry(a, b, carry_in):
    """Vector ARM AddWithCarry: ``(result, carry_out, overflow)``.

    ``carry_in`` may be a bool array or a Python bool/int scalar.
    """
    a = u32(a)
    b = u32(b)
    unsigned = (a.astype(np.uint64) + b.astype(np.uint64)
                + np.asarray(carry_in, dtype=np.uint64))
    result = (unsigned & MASK32).astype(np.uint32)
    carry = unsigned > MASK32
    # Signed overflow iff the operands agree in sign and the result
    # does not -- equivalent to alu's signed-sum comparison, including
    # the carry-in (a carry-in never flips operand signs).
    overflow = ((~(a ^ b) & (a ^ result)) >> np.uint32(31)).astype(bool)
    return result, carry, overflow


def dp_compute(op, rn_value, op2_value, c_in, v_in, shifter_carry):
    """Vector twin of ``alu.dp_compute``.

    Flags come and go as component bool arrays: ``(c_in, v_in)`` are the
    current lane flags, ``shifter_carry`` is the per-lane barrel-shifter
    carry-out.  Returns ``(result, n, z, c, v)``.
    """
    rn_value = u32(rn_value)
    op2_value = u32(op2_value)
    if op in _LOGICAL:
        if op == Op.AND or op == Op.TST:
            result = rn_value & op2_value
        elif op == Op.EOR or op == Op.TEQ:
            result = rn_value ^ op2_value
        elif op == Op.ORR:
            result = rn_value | op2_value
        elif op == Op.BIC:
            result = rn_value & ~op2_value
        elif op == Op.MOV:
            result = op2_value.copy()
        else:  # MVN
            result = ~op2_value
        carry = np.broadcast_to(np.asarray(shifter_carry, dtype=bool),
                                result.shape)
        overflow = np.broadcast_to(np.asarray(v_in, dtype=bool),
                                   result.shape)
    elif op == Op.SUB or op == Op.CMP:
        result, carry, overflow = add_with_carry(rn_value, ~op2_value,
                                                 True)
    elif op == Op.RSB:
        result, carry, overflow = add_with_carry(op2_value, ~rn_value,
                                                 True)
    elif op == Op.ADD or op == Op.CMN:
        result, carry, overflow = add_with_carry(rn_value, op2_value,
                                                 False)
    elif op == Op.ADC:
        result, carry, overflow = add_with_carry(rn_value, op2_value,
                                                 c_in)
    elif op == Op.SBC:
        result, carry, overflow = add_with_carry(rn_value, ~op2_value,
                                                 c_in)
    else:
        raise ValueError(f"not a data-processing op: {op!r}")
    n = ((result >> np.uint32(31)) & 1).astype(bool)
    z = result == 0
    return result, n, z, np.asarray(carry, dtype=bool), overflow


def multiply(op, rn_value, rm_value, ra_value):
    """Vector MUL / MLA (low 32 bits)."""
    product = (u32(rn_value).astype(np.uint64)
               * u32(rm_value).astype(np.uint64))
    if op == Op.MLA:
        product += u32(ra_value).astype(np.uint64)
    return (product & MASK32).astype(np.uint32)


def cond_passed(cond, n, z, c, v):
    """Vector twin of ``flags.cond_passed`` -- a bool array per lane."""
    n = np.asarray(n, dtype=bool)
    z = np.asarray(z, dtype=bool)
    c = np.asarray(c, dtype=bool)
    v = np.asarray(v, dtype=bool)
    if cond == 14:
        return np.ones(n.shape, dtype=bool)
    if cond == 0:
        return z
    if cond == 1:
        return ~z
    if cond == 2:
        return c
    if cond == 3:
        return ~c
    if cond == 4:
        return n
    if cond == 5:
        return ~n
    if cond == 6:
        return v
    if cond == 7:
        return ~v
    if cond == 8:
        return c & ~z
    if cond == 9:
        return ~c | z
    if cond == 10:
        return n == v
    if cond == 11:
        return n != v
    if cond == 12:
        return ~z & (n == v)
    if cond == 13:
        return z | (n != v)
    raise ValueError(f"bad condition code {cond}")
