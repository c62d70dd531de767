"""Condition flags and condition-code evaluation."""

from hypothesis import given, strategies as st
import pytest

from repro.isa.flags import COND_CODES, COND_INDEX, Flags, cond_passed

ALL_FLAG_COMBOS = [
    Flags(n=n, z=z, c=c, v=v)
    for n in (False, True) for z in (False, True)
    for c in (False, True) for v in (False, True)
]


@given(st.integers(min_value=0, max_value=15))
def test_pack_unpack_roundtrip(bits):
    assert Flags.unpack(bits).pack() == bits


def test_pack_bit_positions():
    assert Flags(n=True).pack() == 0b1000
    assert Flags(z=True).pack() == 0b0100
    assert Flags(c=True).pack() == 0b0010
    assert Flags(v=True).pack() == 0b0001


def test_copy_is_independent():
    flags = Flags(n=True)
    other = flags.copy()
    other.n = False
    assert flags.n


def test_equality_and_hash():
    assert Flags(z=True) == Flags(z=True)
    assert Flags(z=True) != Flags(c=True)
    assert hash(Flags(z=True)) == hash(Flags(z=True))


def test_repr_shows_set_flags():
    assert "NZ" in repr(Flags(n=True, z=True))


@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS)
def test_al_always_passes(flags):
    assert cond_passed(14, flags)


@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS)
def test_cond_pairs_are_complements(flags):
    """eq/ne, cs/cc, mi/pl, vs/vc, hi/ls, ge/lt, gt/le are complements."""
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11),
                 (12, 13)):
        assert cond_passed(a, flags) != cond_passed(b, flags)


@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS)
def test_cond_semantics(flags):
    n, z, c, v = flags.n, flags.z, flags.c, flags.v
    assert cond_passed(COND_INDEX["eq"], flags) == z
    assert cond_passed(COND_INDEX["cs"], flags) == c
    assert cond_passed(COND_INDEX["mi"], flags) == n
    assert cond_passed(COND_INDEX["vs"], flags) == v
    assert cond_passed(COND_INDEX["hi"], flags) == (c and not z)
    assert cond_passed(COND_INDEX["ge"], flags) == (n == v)
    assert cond_passed(COND_INDEX["gt"], flags) == (not z and n == v)


def test_hs_lo_aliases():
    assert COND_INDEX["hs"] == COND_INDEX["cs"]
    assert COND_INDEX["lo"] == COND_INDEX["cc"]


def test_invalid_cond_raises():
    with pytest.raises(ValueError):
        cond_passed(15, Flags())


def test_cond_code_table_order():
    assert COND_CODES[0] == "eq"
    assert COND_CODES[14] == "al"
    assert len(COND_CODES) == 15
