"""RT-level cache controller: bit-accurate arrays + burst-beat bus FSM.

Reuses the array geometry of :class:`repro.memory.cache.Cache` (identical
injectable bits) but models misses as explicit multi-cycle bus bursts:
a dirty eviction streams the victim line word-by-word onto the bus (each
beat is one pinout transaction), then the refill is requested and streamed
in.  The pipeline freezes for the duration, exactly like a blocking RTL
cache controller.
"""

from repro.memory.cache import Cache, CacheConfig


class RTLCache(Cache):
    """A :class:`Cache` whose misses cost explicit bus-burst cycles and
    whose write-backs appear on the pinout as per-word beats."""

    #: ``bus_listener`` is this cache's own beat splitter; the
    #: simulator's hook sits behind it.
    PINOUT_HOOK = "_beat_listener"

    __slots__ = ("_rtl_cfg", "_beat_listener", "stall_cycles")

    def __init__(self, name, config, ram, rtl_config, bus_listener=None,
                 access_listener=None):
        self._rtl_cfg = rtl_config
        self._beat_listener = bus_listener
        # The base class emits line-granular events; we intercept and
        # re-emit them as word beats with per-beat cycle stamps.
        super().__init__(name, config, ram,
                         bus_listener=self._line_event,
                         access_listener=access_listener)
        self.stall_cycles = 0  # cycles the last access cost beyond 1

    def _line_event(self, kind, addr, data, cycle):
        if self._beat_listener is None:
            return
        cfg = self._rtl_cfg
        if kind == "wb":
            for i in range(cfg.line_words):
                beat_cycle = cycle + (i + 1) * cfg.bus_beat_cycles
                self._beat_listener(
                    "wb", addr + 4 * i, data[4 * i:4 * i + 4], beat_cycle
                )
        else:
            self._beat_listener(kind, addr, b"", cycle)

    def access(self, addr, size, write, value=0, cycle=0):
        """One access; sets :attr:`stall_cycles` to the freeze penalty."""
        self.stall_cycles = 0
        return super().access(addr, size, write, value=value, cycle=cycle)

    def _refill(self, addr, index, cycle):
        victim = self._victim(index)
        penalty = self._rtl_cfg.refill_cycles()
        if self.valid[index, victim] and self.dirty[index, victim]:
            penalty += self._rtl_cfg.writeback_cycles()
        self.stall_cycles = penalty
        return super()._refill(addr, index, cycle)


def make_rtl_cache(name, size, ways, line_size, ram, rtl_config,
                   bus_listener=None, access_listener=None):
    return RTLCache(
        name, CacheConfig(size, ways, line_size), ram, rtl_config,
        bus_listener=bus_listener, access_listener=access_listener,
    )
