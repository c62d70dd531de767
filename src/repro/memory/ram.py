"""Flat little-endian main memory."""

from repro.errors import SimFault

#: Granularity of :func:`page_delta`.
PAGE_BYTES = 4096


def page_delta(data, base, page=PAGE_BYTES):
    """The ``(offset, bytes)`` pages where the image ``data`` differs
    from the equally sized image ``base`` (:func:`apply_delta` inverts
    it)."""
    return tuple(
        (start, bytes(data[start:start + page]))
        for start in range(0, len(data), page)
        if data[start:start + page] != base[start:start + page]
    )


def apply_delta(base, delta):
    """A new bytearray: the image ``base`` with the :func:`page_delta`
    pages laid over."""
    data = bytearray(base)
    for start, blob in delta:
        data[start:start + len(blob)] = blob
    return data


class RAM:
    """A bounded, byte-addressable, little-endian RAM.

    Out-of-range accesses raise :class:`~repro.errors.SimFault` with kind
    ``mem-fault`` -- injected faults that corrupt pointers typically end up
    here and are classified as detected (DUE-like) outcomes.
    """

    __slots__ = ("size", "data")

    def __init__(self, size):
        self.size = size
        self.data = bytearray(size)

    def _check(self, addr, length):
        if addr < 0 or addr + length > self.size:
            raise SimFault(
                "mem-fault", f"access of {length} bytes outside RAM",
                addr=addr,
            )

    def read8(self, addr):
        self._check(addr, 1)
        return self.data[addr]

    def read16(self, addr):
        self._check(addr, 2)
        return int.from_bytes(self.data[addr:addr + 2], "little")

    def read32(self, addr):
        self._check(addr, 4)
        return int.from_bytes(self.data[addr:addr + 4], "little")

    def write8(self, addr, value):
        self._check(addr, 1)
        self.data[addr] = value & 0xFF

    def write16(self, addr, value):
        self._check(addr, 2)
        self.data[addr:addr + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def write32(self, addr, value):
        self._check(addr, 4)
        self.data[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def read_block(self, addr, length):
        self._check(addr, length)
        return bytes(self.data[addr:addr + length])

    def write_block(self, addr: int, blob: bytes) -> None:
        self._check(addr, len(blob))
        self.data[addr:addr + len(blob)] = blob

    def snapshot(self):
        return bytes(self.data)

    def restore(self, blob):
        self.data = bytearray(blob)

    def page_delta(self, base, page=PAGE_BYTES):
        """The ``(offset, bytes)`` pages where this RAM differs from the
        snapshot ``base`` (:meth:`restore_delta` inverts it)."""
        return page_delta(self.data, base, page)

    def restore_delta(self, base, delta):
        """Become ``base`` with the :meth:`page_delta` pages laid over,
        in this RAM's own buffer."""
        data = self.data
        data[:] = base
        for start, blob in delta:
            data[start:start + len(blob)] = blob

    def __repr__(self):
        return f"RAM({self.size:#x} bytes)"
