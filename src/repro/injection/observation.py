"""Observation points between the system layers (paper SS III-C).

GeFIN natively offers observation points *between* the stack layers: the
hardware/software boundary gives the Hardware Vulnerability Factor (HVF,
Sridharan & Kaeli, ISCA 2010) and the program output gives AVF.  The
paper modified GeFIN down to the RTL flow's pinout; this module keeps the
native layer-boundary observation available as well:

* :func:`memory_digest` -- the memory image as the *next layer* would see
  it (RAM with dirty cache lines written through), so a fault that
  corrupted memory without ever reaching the program output is still
  observable ("latent" corruption);
* :func:`arch_digest`  -- committed architectural registers + flags.

Campaigns with ``observation="arch"`` classify output-visible corruption
as SDC and state-only corruption as LATENT; both are Unsafe, which is
exactly the HVF-vs-AVF gap the referenced work measures.
"""

import zlib


def coherent_image(ram, caches):
    """The coherent memory image: a copy of RAM with every valid+dirty
    line of ``caches`` overlaid.

    Non-destructive: the caches are not flushed.
    """
    image = bytearray(ram.data)
    for cache in caches:
        config = cache.config
        for index in range(config.sets):
            for way in range(config.ways):
                if cache.valid[index, way] and cache.dirty[index, way]:
                    base = cache._line_base(index, way)
                    image[base:base + config.line_size] = (
                        cache.data[index, way].tobytes()
                    )
    return image


def memory_digest(ram, caches):
    """CRC of the coherent memory image (RAM + dirty lines)."""
    return zlib.crc32(coherent_image(ram, caches)) & 0xFFFFFFFF


def arch_digest(sim):
    """Committed architectural registers + flags, as a hashable tuple."""
    state = sim.arch_state()
    return (tuple(state["regs"]), state["flags"])


def hardware_state_digest(sim):
    """The full hardware-visible state: registers + coherent memory.

    Level-generic: backends without a cache model (the ``arch`` tier)
    contribute their RAM image directly.
    """
    caches = tuple(
        cache for cache in (getattr(sim, "dcache", None),)
        if cache is not None
    )
    return arch_digest(sim), memory_digest(sim.ram, caches)
