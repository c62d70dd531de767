"""Copy-on-write paged lane memory for the rtl lane backend.

A dense lane layout gives every lane -- N fault lanes plus the
reference lane -- a dense private copy of the group checkpoint's RAM
image, so memory scaled as O(lanes x footprint) and capped usable lane
counts on realistic workloads.  But the lanes *share* almost all of
that memory by construction: every lane starts from the same golden
image, the reference lane replays the golden store stream, and a fault
lane's memory diverges from the reference only at the (rare) stores
whose operands the flipped bit actually reached.

:class:`LanePagedMemory` exploits that with three sharing levels per
page:

* the immutable **base** image (the group checkpoint's RAM bytes);
* the **reference overlay** -- pages the reference lane has written,
  shared by every lane that has not diverged on that page;
* per-lane **private pages**, materialized copy-on-write at the first
  store that would make the lane's view differ from the shared one.

A lane's view of byte ``a`` is ``private[page] ?? ref[page] ?? base``.
The write protocol keeps that exact: when a reference store changes
the shared view, every live lane *not* making the identical store
snapshots the page first (pre-store content, what its dense copy would
hold); a non-reference store lands in a private page unless the lane's
view already equals the stored value.  Stores that leave a lane's view
unchanged -- the overwhelmingly common case, since most faulty lanes
keep executing the golden store stream -- allocate nothing.

Observation stays exact rather than approximated: :meth:`compose`
rebuilds the full dense image (base + overlays) whenever the engine
needs the bytes a per-lane RAM copy would hold (hardware-state
classification).  Page-granular dirty tracking bounds the *storage*,
never the observation.

``allocated_bytes``/``peak_bytes`` count every materialized page
(reference overlay included) and are deterministic for a fixed seed --
the peak-lane-memory bench series asserts sub-linear growth against
the dense ``lanes x footprint`` baseline.
"""

import numpy as np

#: Default page granularity.  4 KiB keeps the privatization copies an
#: order of magnitude below the smallest workload footprint while the
#: page maps stay tiny (tens of entries).
PAGE_SIZE = 4096


class LanePagedMemory:
    """``width`` lane views of one RAM image, shared copy-on-write.

    ``ref`` names the reference lane: its stores update the shared
    overlay in place, every other lane's stores privatize on first
    divergence.  Aligned power-of-two accesses (the only kind the
    engine issues after its fault checks) never straddle a page.
    """

    def __init__(self, base, width, ref, page_size=PAGE_SIZE):
        if page_size & (page_size - 1):
            raise ValueError("page_size must be a power of two")
        self.base = np.frombuffer(bytes(base), dtype=np.uint8)
        self.size = self.base.size
        self.width = width
        self.ref = ref
        self.page_size = page_size
        self._shift = page_size.bit_length() - 1
        self._mask = page_size - 1
        #: Pages the reference lane has written (page index -> bytes).
        self.ref_pages = {}
        #: Per-lane private pages (page index -> bytes).
        self.lane_pages = [dict() for _ in range(width)]
        #: Lanes still reading through the store; released lanes no
        #: longer participate in copy-on-write snapshots.
        self.live = set(range(width))
        #: Currently materialized page bytes (ref overlay + private).
        self.allocated_bytes = 0
        #: High-water mark of ``allocated_bytes`` over the group.
        self.peak_bytes = 0

    # -- reads ---------------------------------------------------------

    def _page_view(self, k, p):
        page = self.lane_pages[k].get(p)
        if page is None:
            page = self.ref_pages.get(p)
        if page is None:
            start = p << self._shift
            page = self.base[start:start + self.page_size]
        return page

    def read(self, k, addr, size):
        """Little-endian ``size``-byte integer at ``addr`` as lane
        ``k`` sees it (``addr`` aligned to ``size``)."""
        page = self._page_view(k, addr >> self._shift)
        off = addr & self._mask
        return int.from_bytes(page[off:off + size].tobytes(), "little")

    def read_byte(self, k, addr):
        return int(self._page_view(k, addr >> self._shift)
                   [addr & self._mask])

    def view_bytes(self, k, addr, n):
        """Raw ``n`` bytes at ``addr`` as lane ``k`` sees them (bus-beat
        payloads; beats are line-interior and never straddle a page)."""
        page = self._page_view(k, addr >> self._shift)
        off = addr & self._mask
        return page[off:off + n].tobytes()

    # -- writes --------------------------------------------------------

    def _account(self, nbytes):
        self.allocated_bytes += nbytes
        if self.allocated_bytes > self.peak_bytes:
            self.peak_bytes = self.allocated_bytes

    def _base_page(self, p):
        start = p << self._shift
        return self.base[start:start + self.page_size]

    def _privatize(self, k, p):
        """Materialize lane ``k``'s private copy of page ``p`` from its
        current shared view (pre-instant content)."""
        page = self.ref_pages.get(p)
        copy = (self._base_page(p) if page is None else page).copy()
        self.lane_pages[k][p] = copy
        self._account(copy.size)
        return copy

    def _ref_page(self, p):
        page = self.ref_pages.get(p)
        if page is None:
            page = self._base_page(p).copy()
            self.ref_pages[p] = page
            self._account(page.size)
        return page

    @staticmethod
    def _store(page, off, size, value):
        page[off:off + size] = np.frombuffer(
            value.to_bytes(size, "little"), dtype=np.uint8)

    def write(self, writers, addrs, size, values):
        """One store instant: ``writers[i]`` stores ``values[i]``
        (little-endian, ``size`` bytes, already masked) at ``addrs[i]``.

        The reference lane's store mutates the shared overlay, so every
        live lane *not* performing the identical store snapshots the
        touched page first -- the snapshot holds the pre-instant bytes,
        exactly what that lane's dense RAM copy would hold.  Other
        writers then land privately unless their view already equals
        the stored value (a content no-op allocates nothing).
        """
        ref = self.ref
        ref_pos = None
        for pos, k in enumerate(writers):
            if k == ref:
                ref_pos = pos
        if ref_pos is not None:
            ref_addr = addrs[ref_pos]
            ref_value = values[ref_pos]
            if self.read(ref, ref_addr, size) != ref_value:
                p = ref_addr >> self._shift
                for k in self.live:
                    if k == ref or p in self.lane_pages[k]:
                        continue
                    identical = any(
                        wk == k and addrs[i] == ref_addr
                        and values[i] == ref_value
                        for i, wk in enumerate(writers))
                    if not identical:
                        self._privatize(k, p)
                self._store(self._ref_page(p), ref_addr & self._mask,
                            size, ref_value)
        for pos, k in enumerate(writers):
            if k == ref:
                continue
            addr = addrs[pos]
            value = values[pos]
            if self.read(k, addr, size) == value:
                continue
            p = addr >> self._shift
            page = self.lane_pages[k].get(p)
            if page is None:
                page = self._privatize(k, p)
            self._store(page, addr & self._mask, size, value)

    # -- composition / lifecycle ---------------------------------------

    def compose(self, k):
        """Lane ``k``'s full dense image (bytes): exactly what its
        per-lane RAM copy would hold."""
        image = bytearray(self.base)
        for p, page in self.ref_pages.items():
            start = p << self._shift
            image[start:start + page.size] = page.tobytes()
        for p, page in self.lane_pages[k].items():
            start = p << self._shift
            image[start:start + page.size] = page.tobytes()
        return bytes(image)

    def release(self, k):
        """Drop lane ``k``'s private pages and stop snapshotting for it
        (retired or exported lanes)."""
        self.live.discard(k)
        pages = self.lane_pages[k]
        self.allocated_bytes -= sum(p.size for p in pages.values())
        pages.clear()
