"""RAM and set-associative cache substrate."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.errors import SimFault
from repro.memory.bus import Transaction
from repro.memory.cache import Cache, CacheConfig
from repro.memory.ram import RAM


def make_cache(size=1024, ways=4, line=32, ram_size=0x10000,
               events=None):
    ram = RAM(ram_size)
    listener = None
    if events is not None:
        listener = lambda kind, addr, data, cycle: events.append(
            (kind, addr, bytes(data))
        )
    cache = Cache("l1d", CacheConfig(size, ways, line), ram,
                  bus_listener=listener)
    return ram, cache


# ----------------------------------------------------------------------
# RAM
# ----------------------------------------------------------------------

def test_ram_rw_widths():
    ram = RAM(64)
    ram.write32(0, 0x11223344)
    assert ram.read32(0) == 0x11223344
    assert ram.read16(0) == 0x3344
    assert ram.read8(3) == 0x11


def test_ram_little_endian():
    ram = RAM(8)
    ram.write32(0, 0x01020304)
    assert ram.read8(0) == 0x04


def test_ram_bounds():
    ram = RAM(16)
    with pytest.raises(SimFault):
        ram.read32(14)
    with pytest.raises(SimFault):
        ram.write8(16, 1)
    with pytest.raises(SimFault):
        ram.read_block(-1, 4)


def test_ram_block_ops_and_snapshot():
    ram = RAM(32)
    ram.write_block(4, b"abcd")
    snap = ram.snapshot()
    ram.write_block(4, b"zzzz")
    ram.restore(snap)
    assert ram.read_block(4, 4) == b"abcd"


# ----------------------------------------------------------------------
# cache geometry
# ----------------------------------------------------------------------

def test_config_geometry():
    cfg = CacheConfig(32 * 1024, 4, 32)
    assert cfg.sets == 256
    tag, index, offset = cfg.split(0x12345678)
    assert offset == 0x18
    assert index == (0x12345678 >> 5) & 0xFF


def test_config_rejects_bad_geometry():
    with pytest.raises(ValueError):
        CacheConfig(1000, 4, 32)


def test_split_roundtrip():
    cfg = CacheConfig(1024, 2, 16)
    addr = 0xBEEF0
    tag, index, offset = cfg.split(addr)
    rebuilt = (tag << (cfg.index_bits + cfg.offset_bits)) \
        | (index << cfg.offset_bits) | offset
    assert rebuilt == addr


# ----------------------------------------------------------------------
# cache behaviour
# ----------------------------------------------------------------------

def test_miss_then_hit():
    ram, cache = make_cache()
    ram.write32(0x100, 77)
    value, hit = cache.access(0x100, 4, write=False)
    assert value == 77 and not hit
    value, hit = cache.access(0x100, 4, write=False)
    assert value == 77 and hit


def test_write_back_not_through():
    ram, cache = make_cache()
    cache.access(0x200, 4, write=True, value=123)
    assert ram.read32(0x200) == 0  # not yet written back
    cache.flush_all()
    assert ram.read32(0x200) == 123


def test_eviction_writes_back_dirty_line():
    events = []
    ram, cache = make_cache(size=4 * 32, ways=1, line=32, events=events)
    cache.access(0x000, 4, write=True, value=0xAA)  # set 0
    cache.access(0x080, 4, write=False)             # set 0 conflict (1-way)
    assert ram.read32(0) == 0xAA
    kinds = [e[0] for e in events]
    assert "wb" in kinds and "rd" in kinds


def test_lru_replacement_order():
    ram, cache = make_cache(size=2 * 32 * 2, ways=2, line=32)  # 2 sets
    cache.access(0x000, 4, write=False)   # set0 way A
    cache.access(0x080, 4, write=False)   # set0 way B  (0x80 -> set 0)
    cache.access(0x000, 4, write=False)   # touch A again
    cache.access(0x100, 4, write=False)   # evicts B (LRU)
    _, hit_a = cache.access(0x000, 4, write=False)
    assert hit_a
    _, hit_b = cache.access(0x080, 4, write=False)
    assert not hit_b


def test_unaligned_access_faults():
    _, cache = make_cache()
    with pytest.raises(SimFault):
        cache.access(0x101, 4, write=False)


def test_beyond_ram_faults():
    _, cache = make_cache(ram_size=0x1000)
    with pytest.raises(SimFault):
        cache.access(0x2000, 4, write=False)


def test_byte_write_read():
    _, cache = make_cache()
    cache.access(0x40, 1, write=True, value=0x5A)
    value, _ = cache.access(0x40, 1, write=False)
    assert value == 0x5A


@given(st.lists(st.booleans(), min_size=4, max_size=4),
       st.lists(st.sampled_from((0, 1, 7, 254, 255)), min_size=4,
                max_size=4),
       st.integers(min_value=0, max_value=3))
def test_touch_matches_vector_aging_rule(valid, ages, way):
    """The per-element replacement update against the array rule it
    replaced: every valid way below 255 ages by one, then ``way`` is
    the youngest (invalid lines and saturated ages hold)."""
    import numpy as np

    _, cache = make_cache()
    cache.valid[3] = valid
    cache.age[3] = ages
    expected = np.array(ages, dtype=np.uint8)
    bump = np.array(valid) & (expected < 255)
    expected[bump] += 1
    expected[way] = 0
    cache._touch(3, way, valid)
    assert cache.age[3].tolist() == expected.tolist()


def test_flip_bit_in_data_array_corrupts_value():
    ram, cache = make_cache()
    cache.access(0x00, 4, write=True, value=0)
    index, way = cache.probe(0x00)
    flat_byte = (index * cache.config.ways + way) * cache.config.line_size
    cache.flip_bit("data", flat_byte * 8 + 3)
    value, _ = cache.access(0x00, 4, write=False)
    assert value == 8


def test_flip_valid_bit_drops_line():
    ram, cache = make_cache()
    ram.write32(0x00, 42)
    cache.access(0x00, 4, write=False)
    index, way = cache.probe(0x00)
    assert way is not None
    cache.flip_bit("valid", index * cache.config.ways + way)
    _, way_after = cache.probe(0x00)
    assert way_after is None


def test_flip_tag_bit_changes_mapping():
    _, cache = make_cache()
    cache.access(0x00, 4, write=False)
    index, way = cache.probe(0x00)
    width = 32 - cache.config.index_bits - cache.config.offset_bits
    cache.flip_bit("tag", (index * cache.config.ways + way) * width)
    _, way_after = cache.probe(0x00)
    assert way_after is None


def test_bit_count_consistency():
    _, cache = make_cache(size=1024, ways=4, line=32)
    assert cache.bit_count("data") == 1024 * 8
    assert cache.bit_count("valid") == (1024 // 32)
    assert cache.bit_count("dirty") == (1024 // 32)


def test_snapshot_restore_roundtrip():
    ram, cache = make_cache()
    cache.access(0x40, 4, write=True, value=9)
    snap = cache.snapshot()
    cache.access(0x40, 4, write=True, value=10)
    cache.restore(snap)
    value, _ = cache.access(0x40, 4, write=False)
    assert value == 9


def test_access_listener_sees_accesses():
    seen = []
    ram, cache = make_cache()
    cache.access_listener = lambda *args: seen.append(args)
    cache.access(0x40, 4, write=True, value=1, cycle=5)
    assert seen and seen[0][0] == 5 and seen[0][3] is True


def test_trace_listener_sees_line_lifetime_events():
    """Refills are writes, loads and dirty write-backs are reads; stores
    and clean evictions report nothing."""
    seen = []
    _, cache = make_cache(size=128, ways=1, line=32)  # 4 sets, direct
    cache.trace_listener = lambda *args: seen.append(args)
    cache.access(0x40, 4, write=False)            # miss: refill + load
    assert seen == [(2, 0, True), (2, 0, False)]
    seen.clear()
    cache.access(0x44, 4, write=True, value=7)    # store hit
    cache.access(0x20, 4, write=True, value=7)    # store miss: refill
    assert seen == [(1, 0, True)]
    seen.clear()
    cache.access(0xC0, 4, write=False)   # evicts dirty 0x40: wb first
    assert seen == [(2, 0, False), (2, 0, True), (2, 0, False)]
    seen.clear()
    cache.access(0x40, 4, write=False)   # evicts clean 0xC0: no wb
    assert seen == [(2, 0, True), (2, 0, False)]


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),  # word index
        st.booleans(),                            # write?
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    ),
    min_size=1, max_size=120,
))
def test_cache_matches_flat_memory(ops):
    """Property: any access sequence through a tiny cache equals a flat
    memory model (write-back correctness)."""
    ram, cache = make_cache(size=4 * 32 * 2, ways=2, line=32,
                            ram_size=4096)
    flat = {}
    for word, write, value in ops:
        addr = word * 4
        if write:
            cache.access(addr, 4, write=True, value=value)
            flat[addr] = value
        else:
            got, _ = cache.access(addr, 4, write=False)
            assert got == flat.get(addr, 0)
    cache.flush_all()
    for addr, value in flat.items():
        assert ram.read32(addr) == value


def test_transaction_equality_and_keys():
    a = Transaction("wb", 0x40, b"abcd", cycle=10)
    b = Transaction("wb", 0x40, b"abcd", cycle=99)
    assert a == b                      # content+order semantics
    assert a.key() == b.key()
    assert a.key(with_timing=True) != b.key(with_timing=True)
    assert a != Transaction("rd", 0x40)
