"""External-bus transactions: the observable "core pinout".

The paper's RTL flow computes *Safeness* by comparing the signals at the
CPU pinout against a golden trace; for a Cortex-A9 block that pinout shows
exactly the traffic leaving the core+L1 complex (cache-line refills and
dirty write-backs).  Both simulators publish that traffic as
:class:`Transaction` records so the observation point is identical across
levels (SS III-C of the paper).
"""


class Transaction:
    """One bus-level event.

    Attributes:
        kind: ``"rd"`` for a line refill request, ``"wb"`` for a dirty
            write-back, ``"out"`` for syscall output leaving the core.
        addr: line-aligned byte address.
        data: payload bytes (write-backs and output only).
        cycle: issue cycle (used only by strict-timing comparison).
    """

    __slots__ = ("kind", "addr", "data", "cycle")

    def __init__(self, kind, addr, data=b"", cycle=0):
        self.kind = kind
        self.addr = addr
        self.data = bytes(data)
        self.cycle = cycle

    def __reduce__(self):
        # Positional, not the default slot-state dict: checkpoints and
        # waypoints ship thousands of these to campaign workers.
        return Transaction, (self.kind, self.addr, self.data, self.cycle)

    def key(self, with_timing=False):
        """Comparison key: content+order by default, plus cycle if asked."""
        if with_timing:
            return (self.kind, self.addr, self.data, self.cycle)
        return (self.kind, self.addr, self.data)

    def __eq__(self, other):
        if not isinstance(other, Transaction):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        payload = f", {len(self.data)}B" if self.data else ""
        return f"Transaction({self.kind}, {self.addr:#010x}{payload}, " \
               f"cycle={self.cycle})"
