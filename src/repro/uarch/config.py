"""Microarchitectural configuration (Table I of the paper)."""


class CortexA9Config:
    """The paper's Table I configuration, plus the timing knobs that gem5
    exposes but the table leaves implicit.

    Table I values::

        ISA / Core                    ARMv7 / Out-of-order
        Data cache                    32KB 4-way
        Instruction cache             32KB 4-way
        Physical Register File        56 registers
        Instruction queue             32
        Reorder buffer                40
        Fetch/Execute/Writeback width 2/4/4
    """

    __slots__ = (
        "isa", "core_type", "dcache_size", "dcache_ways", "icache_size",
        "icache_ways", "phys_regs", "iq_entries", "rob_entries",
        "fetch_width", "execute_width", "writeback_width", "commit_width",
        "decode_buffer", "flag_regs", "line_size", "alu_units",
        "mul_units", "mem_units", "alu_latency", "mul_latency",
        "load_hit_latency", "store_latency", "miss_latency",
        "mispredict_penalty", "predictor_entries", "ras_entries",
    )

    def __init__(self, **overrides):
        # Table I attributes.
        self.isa = "ARMv7"
        self.core_type = "Out-of-order"
        self.dcache_size = 32 * 1024
        self.dcache_ways = 4
        self.icache_size = 32 * 1024
        self.icache_ways = 4
        self.phys_regs = 56
        self.iq_entries = 32
        self.rob_entries = 40
        self.fetch_width = 2
        self.execute_width = 4
        self.writeback_width = 4
        # Implicit knobs (gem5-style defaults for an A9-class core).
        self.commit_width = 4
        self.decode_buffer = 8
        self.flag_regs = 16
        self.line_size = 32
        self.alu_units = 2
        self.mul_units = 1
        self.mem_units = 1
        self.alu_latency = 1
        self.mul_latency = 4
        self.load_hit_latency = 4
        self.store_latency = 1
        self.miss_latency = 40
        self.mispredict_penalty = 4
        self.predictor_entries = 1024
        self.ras_entries = 8
        for key, value in overrides.items():
            if not hasattr(self, key):
                raise TypeError(f"unknown config attribute {key!r}")
            setattr(self, key, value)

    def table_rows(self):
        """Rows of the paper's Table I, in order."""
        return [
            ("ISA / Core", f"{self.isa} / {self.core_type}"),
            ("Data cache", f"{self.dcache_size // 1024}KB "
                           f"{self.dcache_ways}-way"),
            ("Instruction cache", f"{self.icache_size // 1024}KB "
                                  f"{self.icache_ways}-way"),
            ("Physical Register File", f"{self.phys_regs} registers"),
            ("Instruction queue", str(self.iq_entries)),
            ("Reorder buffer", str(self.rob_entries)),
            ("Fetch/Execute/Writeback width",
             f"{self.fetch_width}/{self.execute_width}"
             f"/{self.writeback_width}"),
        ]

    def __repr__(self):
        return (
            f"CortexA9Config(prf={self.phys_regs}, iq={self.iq_entries},"
            f" rob={self.rob_entries}, widths={self.fetch_width}/"
            f"{self.execute_width}/{self.writeback_width})"
        )
