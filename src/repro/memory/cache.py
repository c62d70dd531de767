"""Set-associative write-back cache with bit-accurate, injectable arrays.

The storage arrays (data, tag, valid, dirty, LRU-age) are numpy arrays so
that the fault-injection framework can flip any single bit -- the paper's
L1D campaigns target exactly these SRAM arrays.  Both CPU models use this
geometry; the RT-level model wraps it with a cycle-level refill/evict FSM
while the microarchitectural model charges fixed hit/miss latencies, which
mirrors how gem5 and an RTL cache controller differ.
"""

import numpy as np

from repro.errors import SimFault


class CacheConfig:
    """Geometry of one cache (defaults: the Cortex-A9 32 KB 4-way L1)."""

    __slots__ = ("size", "ways", "line_size", "sets", "offset_bits",
                 "index_bits")

    def __init__(self, size=32 * 1024, ways=4, line_size=32):
        if size % (ways * line_size):
            raise ValueError("size must be a multiple of ways * line_size")
        self.size = size
        self.ways = ways
        self.line_size = line_size
        self.sets = size // (ways * line_size)
        if self.sets & (self.sets - 1) or line_size & (line_size - 1):
            raise ValueError("sets and line size must be powers of two")
        self.offset_bits = line_size.bit_length() - 1
        self.index_bits = self.sets.bit_length() - 1

    def split(self, addr):
        """Split an address into (tag, set index, line offset)."""
        offset = addr & (self.line_size - 1)
        index = (addr >> self.offset_bits) & (self.sets - 1)
        tag = addr >> (self.offset_bits + self.index_bits)
        return tag, index, offset

    def line_addr(self, addr):
        return addr & ~(self.line_size - 1)

    def __repr__(self):
        return (
            f"CacheConfig({self.size // 1024}KB, {self.ways}-way,"
            f" {self.line_size}B lines, {self.sets} sets)"
        )


class Cache:
    """One level-1 cache instance backed by a :class:`~repro.memory.ram.RAM`.

    Write-back, write-allocate, age-based (pseudo-LRU) replacement.

    ``bus_listener`` receives :class:`~repro.memory.bus.Transaction`-shaped
    events via a callable ``(kind, line_addr, data_bytes, cycle)``;
    ``access_listener`` receives ``(cycle, set, way, write, addr)`` for every
    access and is what the RTL inject-near-consumption optimisation replays.
    ``trace_listener`` receives ``(set, way, write)`` for every event on a
    line's data bytes that the fault pruner needs: a refill (``write``,
    all bytes overwritten), a load and a dirty write-back (reads).
    Stores are not reported: a partial write neither reads the line's
    other bytes nor overwrites all of them.
    """

    __slots__ = ("name", "config", "ram", "bus_listener", "access_listener",
                 "trace_listener", "tags", "valid", "dirty", "age", "data",
                 "hits", "misses", "writebacks")

    #: Injectable arrays and the bit width of one element.
    ARRAYS = ("data", "tag", "valid", "dirty", "age")

    #: The attribute holding the simulator's pinout hook (what an
    #: in-flight waypoint detaches and re-attaches).
    PINOUT_HOOK = "bus_listener"

    def __init__(self, name, config, ram, bus_listener=None,
                 access_listener=None):
        self.name = name
        self.config = config
        self.ram = ram
        self.bus_listener = bus_listener
        self.access_listener = access_listener
        self.trace_listener = None
        shape = (config.sets, config.ways)
        self.tags = np.zeros(shape, dtype=np.uint32)
        self.valid = np.zeros(shape, dtype=bool)
        self.dirty = np.zeros(shape, dtype=bool)
        self.age = np.zeros(shape, dtype=np.uint8)
        self.data = np.zeros(shape + (config.line_size,), dtype=np.uint8)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # lookup / replacement
    # ------------------------------------------------------------------

    def probe(self, addr):
        """Return ``(index, way)`` for a hit, ``(index, None)`` for a miss.

        Does not touch replacement state.
        """
        tag, index, _ = self.config.split(addr)
        return index, self._find(index, tag, self.valid[index].tolist())

    def _find(self, index, tag, valid):
        """The way of set ``index`` holding ``tag`` (None on a miss);
        ``valid`` is the set's valid row as a list."""
        tags = self.tags[index].tolist()
        for way, bit in enumerate(valid):
            if bit and tags[way] == tag:
                return way
        return None

    def _touch(self, index, way, valid):
        """Age every valid way of the set (saturating) and make ``way``
        the youngest; writes only the elements that change."""
        ages = self.age[index]
        row = ages.tolist()
        for other, bit in enumerate(valid):
            if other == way:
                if row[other]:
                    ages[other] = 0
            elif bit and row[other] < 255:
                ages[other] = row[other] + 1

    def _victim(self, index):
        for way in range(self.config.ways):
            if not self.valid[index, way]:
                return way
        return int(np.argmax(self.age[index]))

    def _line_base(self, index, way):
        tag = int(self.tags[index, way])
        return (
            (tag << (self.config.index_bits + self.config.offset_bits))
            | (index << self.config.offset_bits)
        )

    def _evict(self, index, way, cycle):
        if self.valid[index, way] and self.dirty[index, way]:
            if self.trace_listener is not None:
                self.trace_listener(index, way, False)
            base = self._line_base(index, way)
            blob = self.data[index, way].tobytes()
            self.writebacks += 1
            if self.bus_listener is not None:
                self.bus_listener("wb", base, blob, cycle)
            self.ram.write_block(base, blob)
        self.valid[index, way] = False
        self.dirty[index, way] = False

    def _refill(self, addr, index, cycle):
        way = self._victim(index)
        self._evict(index, way, cycle)
        base = self.config.line_addr(addr)
        blob = self.ram.read_block(base, self.config.line_size)
        tag, _, _ = self.config.split(addr)
        self.tags[index, way] = tag
        self.valid[index, way] = True
        self.dirty[index, way] = False
        self.data[index, way] = np.frombuffer(blob, dtype=np.uint8)
        if self.trace_listener is not None:
            self.trace_listener(index, way, True)
        if self.bus_listener is not None:
            self.bus_listener("rd", base, b"", cycle)
        return way

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------

    def access(self, addr, size, write, value=0, cycle=0):
        """Perform one aligned access of ``size`` bytes.

        Returns ``(value, hit)``; ``value`` is the loaded data for reads,
        the stored value for writes.
        """
        if addr % size:
            raise SimFault("align-fault", f"{size}-byte access", addr=addr)
        tag, index, offset = self.config.split(addr)
        if offset + size > self.config.line_size:  # pragma: no cover
            raise SimFault("mem-fault", "access crosses a line", addr=addr)
        if addr + size > self.ram.size or addr < 0:
            raise SimFault("mem-fault", "beyond RAM", addr=addr)
        valid = self.valid[index].tolist()
        way = self._find(index, tag, valid)
        hit = way is not None
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            way = self._refill(addr, index, cycle)
            valid = self.valid[index].tolist()
        self._touch(index, way, valid)
        if self.access_listener is not None:
            self.access_listener(cycle, index, way, write, addr)
        if write:
            encoded = (value & ((1 << (8 * size)) - 1)).to_bytes(
                size, "little"
            )
            self.data[index, way, offset:offset + size] = list(encoded)
            self.dirty[index, way] = True
            return value, hit
        if self.trace_listener is not None:
            self.trace_listener(index, way, False)
        raw = self.data[index, way, offset:offset + size].tobytes()
        return int.from_bytes(raw, "little"), hit

    def read(self, addr, size, cycle=0):
        value, _ = self.access(addr, size, write=False, cycle=cycle)
        return value

    def write(self, addr, size, value, cycle=0):
        self.access(addr, size, write=True, value=value, cycle=cycle)

    def flush_all(self, cycle=0):
        """Write back every dirty line (end-of-run barrier used by tests)."""
        for index in range(self.config.sets):
            for way in range(self.config.ways):
                self._evict(index, way, cycle)

    # ------------------------------------------------------------------
    # fault-injection interface
    # ------------------------------------------------------------------

    def bit_count(self, array="data"):
        """Total number of injectable bits in ``array``."""
        target = getattr(self, "tags" if array == "tag" else array)
        element_bits = 1 if target.dtype == bool else target.dtype.itemsize * 8
        if array == "tag":
            # Only the architecturally meaningful tag width counts.
            element_bits = 32 - self.config.index_bits - self.config.offset_bits
        return int(target.size) * element_bits

    def flip_bit(self, array, bit_index):
        """Flip one bit; ``bit_index`` is flat in ``[0, bit_count(array))``."""
        if array == "data":
            flat = self.data.reshape(-1)
            byte, bit = divmod(bit_index, 8)
            flat[byte] ^= np.uint8(1 << bit)
        elif array == "tag":
            width = 32 - self.config.index_bits - self.config.offset_bits
            element, bit = divmod(bit_index, width)
            flat = self.tags.reshape(-1)
            flat[element] ^= np.uint32(1 << bit)
        elif array in ("valid", "dirty"):
            flat = getattr(self, array).reshape(-1)
            flat[bit_index] = not flat[bit_index]
        elif array == "age":
            element, bit = divmod(bit_index, 8)
            flat = self.age.reshape(-1)
            flat[element] ^= np.uint8(1 << bit)
        else:
            raise ValueError(f"unknown array {array!r}")

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------

    def snapshot(self):
        return {
            "tags": self.tags.copy(),
            "valid": self.valid.copy(),
            "dirty": self.dirty.copy(),
            "age": self.age.copy(),
            "data": self.data.copy(),
            "stats": (self.hits, self.misses, self.writebacks),
        }

    def restore(self, state):
        self.tags = state["tags"].copy()
        self.valid = state["valid"].copy()
        self.dirty = state["dirty"].copy()
        self.age = state["age"].copy()
        self.data = state["data"].copy()
        self.hits, self.misses, self.writebacks = state["stats"]

    def __repr__(self):
        return f"Cache({self.name}, {self.config!r})"
