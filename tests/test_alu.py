"""Shared data-path logic (barrel shifter, adder, DP ops)."""

from hypothesis import given, strategies as st
import pytest

from repro.isa import alu
from repro.isa.flags import Flags
from repro.isa.instructions import Op, ShiftKind

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
DP_OPS = (Op.AND, Op.EOR, Op.ORR, Op.BIC, Op.MOV, Op.MVN, Op.TST,
          Op.TEQ, Op.ADD, Op.ADC, Op.SUB, Op.SBC, Op.RSB, Op.CMP,
          Op.CMN)


@given(U32)
def test_u32_masks(value):
    assert 0 <= alu.u32(value * 3 + 7) <= 0xFFFFFFFF


@given(U32)
def test_s32_roundtrip(value):
    assert alu.u32(alu.s32(value)) == value


@given(U32, st.integers(min_value=0, max_value=31))
def test_lsl_matches_python(value, amount):
    result, _ = alu.barrel_shift(value, ShiftKind.LSL, amount, False)
    assert result == (value << amount) & 0xFFFFFFFF


@given(U32, st.integers(min_value=0, max_value=31))
def test_lsr_matches_python(value, amount):
    result, _ = alu.barrel_shift(value, ShiftKind.LSR, amount, False)
    assert result == (value >> amount if amount else value)


@given(U32, st.integers(min_value=1, max_value=31))
def test_asr_matches_python(value, amount):
    result, _ = alu.barrel_shift(value, ShiftKind.ASR, amount, False)
    assert result == alu.u32(alu.s32(value) >> amount)


@given(U32, st.integers(min_value=1, max_value=31))
def test_ror_rotates(value, amount):
    result, _ = alu.barrel_shift(value, ShiftKind.ROR, amount, False)
    expected = alu.u32((value >> amount) | (value << (32 - amount)))
    assert result == expected


@given(U32, st.booleans())
def test_zero_shift_passes_carry(value, carry):
    for kind in ShiftKind:
        result, carry_out = alu.barrel_shift(value, kind, 0, carry)
        assert result == value
        assert carry_out == carry


def test_lsl_32_carry_is_bit0():
    _, carry = alu.barrel_shift(1, ShiftKind.LSL, 32, False)
    assert carry
    result, _ = alu.barrel_shift(1, ShiftKind.LSL, 32, False)
    assert result == 0


def test_lsr_32_carry_is_bit31():
    _, carry = alu.barrel_shift(0x80000000, ShiftKind.LSR, 32, False)
    assert carry


def test_asr_large_fills_sign():
    result, _ = alu.barrel_shift(0x80000000, ShiftKind.ASR, 40, False)
    assert result == 0xFFFFFFFF
    result, _ = alu.barrel_shift(0x7FFFFFFF, ShiftKind.ASR, 40, False)
    assert result == 0


@given(U32, U32, st.booleans())
def test_add_with_carry_matches_arith(a, b, carry):
    result, carry_out, overflow = alu.add_with_carry(a, b, carry)
    total = a + b + int(carry)
    assert result == total & 0xFFFFFFFF
    assert carry_out == (total > 0xFFFFFFFF)
    signed = alu.s32(a) + alu.s32(b) + int(carry)
    assert overflow == (signed != alu.s32(result))


@given(U32, U32)
def test_sub_via_adc_identity(a, b):
    """SUB = a + ~b + 1 (the dp_compute implementation path)."""
    result, _, _ = alu.add_with_carry(a, ~b, True)
    assert result == (a - b) & 0xFFFFFFFF


@given(U32, U32)
def test_dp_add_sets_z_and_n(a, b):
    result, flags = alu.dp_compute(Op.ADD, a, b, Flags(), False)
    assert flags.z == (result == 0)
    assert flags.n == bool(result & 0x80000000)


def test_dp_cmp_equal_sets_zc():
    _, flags = alu.dp_compute(Op.CMP, 5, 5, Flags(), False)
    assert flags.z and flags.c and not flags.n and not flags.v


def test_dp_cmp_less_sets_n_clears_c():
    _, flags = alu.dp_compute(Op.CMP, 3, 5, Flags(), False)
    assert not flags.c and flags.n


def test_dp_overflow():
    _, flags = alu.dp_compute(Op.ADD, 0x7FFFFFFF, 1, Flags(), False)
    assert flags.v and flags.n


@given(U32, U32, st.booleans())
def test_logical_ops_pass_shifter_carry(a, b, shifter_carry):
    for op in (Op.AND, Op.EOR, Op.ORR, Op.BIC, Op.MOV, Op.MVN):
        _, flags = alu.dp_compute(op, a, b, Flags(v=True), shifter_carry)
        assert flags.c == shifter_carry
        assert flags.v  # V preserved by logical ops


@given(U32, U32)
def test_adc_uses_carry_in(a, b):
    without, _ = alu.dp_compute(Op.ADC, a, b, Flags(c=False), False)
    with_c, _ = alu.dp_compute(Op.ADC, a, b, Flags(c=True), True)
    assert with_c == (without + 1) & 0xFFFFFFFF


@given(U32, U32)
def test_rsb_reverses(a, b):
    result, _ = alu.dp_compute(Op.RSB, a, b, Flags(), False)
    assert result == (b - a) & 0xFFFFFFFF


@given(U32, U32)
def test_mul_low_32(a, b):
    assert alu.multiply(Op.MUL, a, b, 0) == (a * b) & 0xFFFFFFFF


@given(U32, U32, U32)
def test_mla_accumulates(a, b, acc):
    assert alu.multiply(Op.MLA, a, b, acc) == (a * b + acc) & 0xFFFFFFFF


def _dp_reference(op, a, b, flags, shifter_carry):
    """Per-op ARM semantics, spelled out: the check on ``dp_compute``'s
    table-driven dispatch and sign-rule overflow."""
    logical = {
        Op.AND: a & b, Op.TST: a & b, Op.EOR: a ^ b, Op.TEQ: a ^ b,
        Op.ORR: a | b, Op.BIC: a & ~b & 0xFFFFFFFF, Op.MOV: b,
        Op.MVN: ~b & 0xFFFFFFFF,
    }
    if op in logical:
        result = logical[op]
        return result, (result >> 31, result == 0, shifter_carry, flags.v)
    x, y, carry_in = {
        Op.SUB: (a, ~b, 1), Op.CMP: (a, ~b, 1), Op.RSB: (b, ~a, 1),
        Op.ADD: (a, b, 0), Op.CMN: (a, b, 0), Op.ADC: (a, b, flags.c),
        Op.SBC: (a, ~b, flags.c),
    }[op]
    x &= 0xFFFFFFFF
    y &= 0xFFFFFFFF
    total = x + y + int(carry_in)
    result = total & 0xFFFFFFFF
    signed = alu.s32(x) + alu.s32(y) + int(carry_in)
    return result, (result >> 31, result == 0, total > 0xFFFFFFFF,
                    signed != alu.s32(result))


@given(U32, U32, st.integers(min_value=0, max_value=15), st.booleans())
def test_dp_compute_matches_reference(a, b, nzcv, shifter_carry):
    flags = Flags.unpack(nzcv)
    for op in DP_OPS:
        result, new_flags = alu.dp_compute(op, a, b, flags, shifter_carry)
        expected, (n, z, c, v) = _dp_reference(op, a, b, flags,
                                               shifter_carry)
        assert result == expected, op
        assert (new_flags.n, new_flags.z, new_flags.c, new_flags.v) == (
            bool(n), z, c, v), op


def test_dp_compute_rejects_non_dp():
    with pytest.raises(ValueError):
        alu.dp_compute(Op.LDR, 0, 0, Flags(), False)
