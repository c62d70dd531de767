"""RT-level model configuration.

Geometry matches Table I of the paper (same caches, same ISA); the timing
knobs describe the bus and pipeline of the RT-level design, which -- as in
the paper -- is *similar but not identical* to the microarchitectural
model's timing (SS III-C: "there are cases that cannot be covered").
"""


class RTLConfig:
    __slots__ = (
        "dcache_size", "dcache_ways", "icache_size", "icache_ways",
        "line_size", "issue_width", "predictor_entries", "ras_entries",
        "mul_latency", "bus_request_cycles", "bus_beat_cycles",
        "mispredict_penalty", "trace_signals",
    )

    def __init__(self, **overrides):
        self.dcache_size = 32 * 1024
        self.dcache_ways = 4
        self.icache_size = 32 * 1024
        self.icache_ways = 4
        self.line_size = 32
        self.issue_width = 2          # dual-issue, A9-style
        self.predictor_entries = 1024
        self.ras_entries = 8
        self.mul_latency = 4
        self.bus_request_cycles = 6   # first-beat latency
        self.bus_beat_cycles = 2      # per-word burst beat
        self.mispredict_penalty = 3   # EX1-resolved redirect bubble
        # Signal tracing (the NCSIM/Safety-Verifier golden-trace machinery;
        # see repro.rtl.trace).  On by default: this is what an RTL flow
        # does and what its throughput cost is.  Campaigns may disable it.
        self.trace_signals = True
        for key, value in overrides.items():
            if not hasattr(self, key):
                raise TypeError(f"unknown config attribute {key!r}")
            setattr(self, key, value)

    @property
    def line_words(self):
        return self.line_size // 4

    def refill_cycles(self):
        """Cycles for one line refill burst."""
        return self.bus_request_cycles + self.line_words \
            * self.bus_beat_cycles

    def writeback_cycles(self):
        """Cycles for one dirty-line write-back burst."""
        return self.line_words * self.bus_beat_cycles

    def __repr__(self):
        return (
            f"RTLConfig(dual-issue, refill={self.refill_cycles()}cyc,"
            f" wb={self.writeback_cycles()}cyc)"
        )
