"""Branch prediction: bimodal counters + BTB-free decoded targets + RAS.

The simulator fetches *decoded* instructions, so direct targets (B/BL) are
known at fetch and only the taken/not-taken decision and return addresses
need predicting -- the same simplification gem5 makes when decode
information is available at fetch."""


class BranchPredictor:
    """Bimodal 2-bit predictor with a small return-address stack."""

    __slots__ = ("entries", "counters", "ras", "ras_entries", "lookups",
                 "mispredicts")

    def __init__(self, entries=1024, ras_entries=8):
        self.entries = entries
        self.counters = [2] * entries  # weakly taken
        self.ras = []
        self.ras_entries = ras_entries
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc):
        return (pc >> 2) % self.entries

    def predict_taken(self, pc):
        """Predicted direction for the conditional branch at ``pc``."""
        self.lookups += 1
        return self.counters[self._index(pc)] >= 2

    def update(self, pc, taken):
        index = self._index(pc)
        counter = self.counters[index]
        if taken and counter < 3:
            self.counters[index] = counter + 1
        elif not taken and counter > 0:
            self.counters[index] = counter - 1

    def push_return(self, addr):
        if len(self.ras) >= self.ras_entries:
            self.ras.pop(0)
        self.ras.append(addr)

    def pop_return(self):
        """Predicted return target, or None when the RAS is empty."""
        if self.ras:
            return self.ras.pop()
        return None

    def snapshot(self):
        return (list(self.counters), list(self.ras),
                self.lookups, self.mispredicts)

    def restore(self, state):
        counters, ras, lookups, mispredicts = state
        self.counters = list(counters)
        self.ras = list(ras)
        self.lookups = lookups
        self.mispredicts = mispredicts
