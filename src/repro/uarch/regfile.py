"""Physical register file, register alias tables and free lists.

The physical register file *holds the live values* (execute-at-execute
model): an injected bit-flip lands in exactly the array a fault in the real
A9's PRF (or gem5's regfile object) would corrupt, and propagates to every
later reader of that physical register.
"""

from repro.errors import SimFault

NUM_ARCH = 16
#: Pseudo-architectural index used to rename the NZCV flags as a unit.
FLAG_ARCH = 16


class PhysRegFile:
    """Value + ready-bit storage for the renamed integer registers."""

    __slots__ = ("size", "values", "ready", "listener")

    def __init__(self, size):
        self.size = size
        self.values = [0] * size
        self.ready = [True] * size
        #: Optional access hook called as ``(index, is_write)`` on every
        #: value read/write (ready-bit traffic is not value state); the
        #: ``uarch`` backend's lifetime-trace capture.
        self.listener = None

    def read(self, index):
        if self.listener is not None:
            self.listener(index, False)
        return self.values[index]

    def write(self, index, value):
        if self.listener is not None:
            self.listener(index, True)
        self.values[index] = value & 0xFFFFFFFF

    # -- fault-injection interface ------------------------------------

    def bit_count(self):
        return self.size * 32

    def flip_bit(self, bit_index):
        reg, bit = divmod(bit_index, 32)
        self.values[reg] ^= 1 << bit

    def snapshot(self):
        return (list(self.values), list(self.ready))

    def restore(self, state):
        values, ready = state
        self.values = list(values)
        self.ready = list(ready)


class RenameMap:
    """Speculative + committed RAT with a free list.

    Arch slots 0..15 are r0-r15 (r15 is never renamed -- the PC lives in
    fetch); slot 16 is the NZCV flag bundle.
    """

    __slots__ = ("prf", "arch_slots", "map", "committed", "free")

    def __init__(self, prf, arch_slots=NUM_ARCH + 1):
        self.prf = prf
        self.arch_slots = arch_slots
        self.map = list(range(arch_slots))
        self.committed = list(range(arch_slots))
        self.free = list(range(arch_slots, prf.size))

    def available(self):
        return len(self.free)

    def lookup(self, arch):
        return self.map[arch]

    def allocate(self, arch):
        """Rename ``arch`` to a fresh physical register.

        Returns ``(new_phys, old_phys)``; raises when the free list is
        empty (callers check :meth:`available` first).
        """
        if not self.free:
            raise SimFault("undefined-inst", "rename with empty free list")
        new = self.free.pop()
        old = self.map[arch]
        self.map[arch] = new
        self.prf.ready[new] = False
        return new, old

    def commit(self, arch, new_phys, old_phys):
        """Retire a mapping: the previous committed physical reg is freed."""
        previous = self.committed[arch]
        self.committed[arch] = new_phys
        if previous != new_phys and previous == old_phys:
            self.free.append(previous)

    def squash(self, arch, new_phys, old_phys):
        """Undo a speculative mapping (walked youngest-first)."""
        self.map[arch] = old_phys
        self.free.append(new_phys)

    def committed_value(self, arch):
        return self.prf.read(self.committed[arch])

    def set_committed_value(self, arch, value):
        self.prf.write(self.committed[arch], value)
        self.prf.ready[self.committed[arch]] = True

    def snapshot(self):
        return (list(self.map), list(self.committed), list(self.free))

    def restore(self, state):
        map_, committed, free = state
        self.map = list(map_)
        self.committed = list(committed)
        self.free = list(free)
