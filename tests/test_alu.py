"""Shared data-path logic (barrel shifter, adder, DP ops).

The second half holds the vectorized twins in :mod:`repro.isa.valu`
(the batch-fault lane engine's data path) to the scalar functions,
element for element -- the uint32 wraparound, carry and shift-range
edges are exactly where numpy dtype promotion could silently diverge.
"""

from hypothesis import given, strategies as st
import numpy as np
import pytest

from repro.isa import alu, valu
from repro.isa.flags import Flags
from repro.isa.instructions import Op, ShiftKind

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
U32_ARRAYS = st.lists(U32, min_size=1, max_size=8)
#: Shift amounts as the scalar path sees them (0..255 after &0xFF),
#: weighted onto the edge cases the vector arms special-case.
SHIFT_EDGES = st.sampled_from((0, 1, 31, 32, 33, 64, 255))
SHIFT_AMOUNTS = st.one_of(SHIFT_EDGES,
                          st.integers(min_value=0, max_value=255))
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


# ----------------------------------------------------------------------
# vectorized twins (repro.isa.valu): element-wise equal to the scalar
# path on every lane, including the wraparound/carry/shift-range edges
# ----------------------------------------------------------------------

@given(U32_ARRAYS)
def test_valu_u32_s32_roundtrip(values):
    lanes = valu.u32(values)
    assert lanes.dtype == np.uint32
    assert valu.u32(valu.s32(values)).tolist() == list(values)
    assert valu.s32(values).tolist() == [alu.s32(v) for v in values]


@given(U32_ARRAYS, SHIFT_AMOUNTS, st.booleans())
def test_valu_barrel_shift_matches_scalar(values, amount, carry_in):
    """Every shift kind, one amount across all lanes -- including the
    UB-prone 0/32/>32 edges the vector arms clamp around."""
    for kind in ShiftKind:
        result, carry = valu.barrel_shift(values, kind, amount,
                                          carry_in)
        expected = [alu.barrel_shift(v, kind, amount, carry_in)
                    for v in values]
        assert result.tolist() == [r for r, _ in expected], (kind, amount)
        assert carry.tolist() == [c for _, c in expected], (kind, amount)


@given(U32_ARRAYS, st.booleans())
def test_valu_barrel_shift_per_lane_amounts(values, carry_in):
    """Data-dependent (register-form) shifts: a different amount per
    lane, drawn to cover every special-case arm at once."""
    edges = (0, 1, 31, 32, 33, 255)
    amounts = [edges[i % len(edges)] for i in range(len(values))]
    for kind in ShiftKind:
        result, carry = valu.barrel_shift(values, kind,
                                          np.asarray(amounts), carry_in)
        expected = [alu.barrel_shift(v, kind, a, carry_in)
                    for v, a in zip(values, amounts)]
        assert result.tolist() == [r for r, _ in expected], kind
        assert carry.tolist() == [c for _, c in expected], kind


@given(U32_ARRAYS, U32_ARRAYS, st.booleans())
def test_valu_add_with_carry_matches_scalar(a, b, carry_in):
    """Unsigned wraparound, carry-out and signed overflow, lane-wise --
    the uint64 widening and the sign-bit overflow identity."""
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    result, carry, overflow = valu.add_with_carry(a, b, carry_in)
    expected = [alu.add_with_carry(x, y, carry_in)
                for x, y in zip(a, b)]
    assert result.tolist() == [r for r, _, _ in expected]
    assert carry.tolist() == [c for _, c, _ in expected]
    assert overflow.tolist() == [v for _, _, v in expected]


def test_valu_add_with_carry_edge_lanes():
    """The classic wraparound/carry corners in one vector call."""
    a = [0xFFFFFFFF, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0]
    b = [1, 0xFFFFFFFF, 1, 0x80000000, 0]
    result, carry, overflow = valu.add_with_carry(a, b, False)
    assert result.tolist() == [0, 0xFFFFFFFE, 0x80000000, 0, 0]
    assert carry.tolist() == [True, True, False, True, False]
    assert overflow.tolist() == [False, False, True, True, False]


@given(U32_ARRAYS, U32_ARRAYS, st.booleans(), st.booleans(),
       st.booleans())
def test_valu_dp_compute_matches_scalar(a, b, c_in, v_in, shifter_carry):
    """Every data-processing op over random lanes: results and all four
    computed flags equal the scalar path (flags enter as the component
    bool arrays the lane engine holds)."""
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    flags = Flags(c=c_in, v=v_in)
    for op in DP_OPS:
        result, fn, fz, fc, fv = valu.dp_compute(
            op, a, b, np.full(n, c_in), np.full(n, v_in), shifter_carry)
        expected = [alu.dp_compute(op, x, y, flags, shifter_carry)
                    for x, y in zip(a, b)]
        assert result.tolist() == [r for r, _ in expected], op
        assert fn.tolist() == [f.n for _, f in expected], op
        assert fz.tolist() == [f.z for _, f in expected], op
        assert fc.tolist() == [f.c for _, f in expected], op
        assert fv.tolist() == [f.v for _, f in expected], op


def test_valu_dp_compute_rejects_non_dp():
    with pytest.raises(ValueError):
        valu.dp_compute(Op.LDR, np.zeros(2, np.uint32),
                        np.zeros(2, np.uint32), False, False, False)


@given(U32_ARRAYS, U32_ARRAYS, U32_ARRAYS)
def test_valu_multiply_matches_scalar(a, b, acc):
    n = min(len(a), len(b), len(acc))
    a, b, acc = a[:n], b[:n], acc[:n]
    for op in (Op.MUL, Op.MLA):
        result = valu.multiply(op, a, b, acc)
        assert result.tolist() == [alu.multiply(op, x, y, z)
                                   for x, y, z in zip(a, b, acc)], op
