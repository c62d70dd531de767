"""Format-2 campaign store codec: bitpacked records, interned strings,
RLE lifetime traces.

This module owns the byte-level layout of a binary campaign store; the
durability/resume policy lives in :mod:`repro.injection.store`.  Three
files make up the record side of a format-2 store directory:

* ``records.bin`` -- a 16-byte header followed by fixed-width
  bitpacked fault records (:data:`RECORD_BYTES` each, little-endian).
  Append-only; a torn trailing record is truncated on recovery, so a
  kill loses at most the fault in flight.
* ``strings.dat`` -- the store's append-only string table.  Structure
  names and detail messages are interned here and referenced from
  records by small integer ids; a string is flushed *before* the first
  record that references it, so an intact record never dangles.
* ``trace.bin`` -- the golden lifetime trace, run-length encoded
  (optional; written atomically after the golden phase).

The packing follows the analyze -> choose encoding -> emit idiom: the
record layout analyzes each field's value range once (the :data:`LANES`
table fixes a bit width per field), the trace codec analyzes each event
stream's delta mask to choose the narrowest per-stream byte width, and
both then emit packed blobs.  The read path is the mirror image: the
record file is mapped with :class:`numpy.memmap` and each lane is
extracted as a vectorized shift-and-mask over the raw byte columns, so
queries (class tallies, classification diffs) touch numpy arrays only
and never construct per-record Python objects.
"""

import os
import struct

import numpy as np

from repro.injection.classify import FaultClass


class StoreError(Exception):
    """A campaign store is unreadable or corrupt beyond recovery."""


class StoreMismatchError(StoreError):
    """Resume rejected: the store was written by a different campaign."""


# ----------------------------------------------------------------------
# record layout
# ----------------------------------------------------------------------

#: One packed fault record, little-endian bit order within the blob.
RECORD_BYTES = 27

RECORDS_MAGIC = b"RPROREC2"
RECORDS_LAYOUT = 1
#: magic(8) + u16 record bytes + u16 layout version + u32 reserved.
RECORDS_HEADER_BYTES = 16

#: ``(field, bit offset, bit width)`` -- the full 216-bit record.
#: Widths are sized to the simulators' ranges with headroom: 2^24
#: sample indices / bits per structure, 2^28 cycles (an order of
#: magnitude past the largest workload windows), 16 structure names and
#: 65536 distinct detail strings per store.
LANES = (
    ("index",          0, 24),
    ("structure_id",  24,  4),
    ("fclass",        28,  3),
    ("pruned",        31,  2),
    ("detail_id",     33, 16),
    ("bit",           49, 24),
    ("cycle",         73, 28),
    ("original_cycle", 101, 28),
    ("sim_cycles",    129, 28),
    ("replay_cycles", 157, 28),
    ("wall_us",       185, 30),
)
LANE_MAP = {name: (offset, width) for name, offset, width in LANES}
assert LANES[-1][1] + LANES[-1][2] <= RECORD_BYTES * 8

#: Class codes are part of the on-disk format -- never renumber.
FCLASS_CODES = {
    FaultClass.MASKED: 0,
    FaultClass.SDC: 1,
    FaultClass.DUE: 2,
    FaultClass.HANG: 3,
    FaultClass.MISMATCH: 4,
    FaultClass.LATENT: 5,
}
FCLASS_BY_CODE = tuple(sorted(FCLASS_CODES, key=FCLASS_CODES.get))

# Code 2 ("group") is read-only legacy: no current prune mode writes it.
PRUNED_CODES = {"": 0, "dead": 1, "group": 2, "static": 3}
PRUNED_BY_CODE = ("", "dead", "group", "static")

#: ``wall_seconds`` is stored as whole microseconds (30 bits, ~18
#: minutes per fault).  Quantization is exact for values that are whole
#: microseconds and loses sub-microsecond noise otherwise -- wall time
#: is per-session accounting, outside the bit-identity contract.
WALL_US_MAX = (1 << 30) - 1


def records_header():
    return RECORDS_MAGIC + struct.pack(
        "<HHI", RECORD_BYTES, RECORDS_LAYOUT, 0)


def check_records_header(header, path):
    if header[:len(RECORDS_MAGIC)] != RECORDS_MAGIC:
        raise StoreError(
            f"{path} is not a format-2 record file (bad magic)")
    record_bytes, layout = struct.unpack_from(
        "<HH", header, len(RECORDS_MAGIC))
    if record_bytes != RECORD_BYTES or layout != RECORDS_LAYOUT:
        raise StoreError(
            f"{path} holds layout-{layout} records of {record_bytes} "
            f"bytes; this code reads layout {RECORDS_LAYOUT} at "
            f"{RECORD_BYTES} bytes/record"
        )


def wall_to_us(wall_seconds):
    return min(max(int(round(wall_seconds * 1e6)), 0), WALL_US_MAX)


def pack_record(index, record, structure_id, detail_id):
    """One :class:`FaultRecord` as a :data:`RECORD_BYTES` blob."""
    try:
        fclass = FCLASS_CODES[record.fclass]
    except KeyError:
        raise StoreError(
            f"unknown fault class {record.fclass!r}: format 2 encodes "
            f"{[f.value for f in FCLASS_BY_CODE]}")
    try:
        pruned = PRUNED_CODES[record.pruned]
    except KeyError:
        raise StoreError(
            f"unknown pruned tag {record.pruned!r}: format 2 encodes "
            f"{sorted(PRUNED_CODES)}")
    values = {
        "index": index,
        "structure_id": structure_id,
        "fclass": fclass,
        "pruned": pruned,
        "detail_id": detail_id,
        "bit": record.fault.bit,
        "cycle": record.fault.cycle,
        "original_cycle": record.fault.original_cycle,
        "sim_cycles": record.sim_cycles,
        "replay_cycles": record.replay_cycles,
        "wall_us": wall_to_us(record.wall_seconds),
    }
    acc = 0
    for name, offset, width in LANES:
        value = values[name]
        if not 0 <= value < (1 << width):
            raise StoreError(
                f"record field {name}={value} does not fit its "
                f"{width}-bit lane (fault #{index})")
        acc |= value << offset
    return acc.to_bytes(RECORD_BYTES, "little")


def extract_lane(rows, offset, width):
    """One lane of an ``(n, RECORD_BYTES)`` uint8 view as uint64.

    Vectorized shift-and-mask: gather the ``(shift + width + 7) // 8``
    bytes that cover the lane into a uint64 accumulator, then shift out
    the leading bits and mask to ``width``.  Never copies the record
    blob and never constructs Python objects.
    """
    start, shift = divmod(offset, 8)
    nbytes = (shift + width + 7) // 8
    acc = np.zeros(rows.shape[0], dtype=np.uint64)
    for b in range(nbytes):
        acc |= rows[:, start + b].astype(np.uint64) << np.uint64(8 * b)
    return (acc >> np.uint64(shift)) & np.uint64((1 << width) - 1)


def recover_records_tail(path):
    """Truncate a torn trailing record (or torn header) in place."""
    try:
        size = os.path.getsize(path)
    except OSError:
        size = -1
    if size < RECORDS_HEADER_BYTES:
        # Killed before the header made it to disk: an empty store.
        path.write_bytes(records_header())
        return
    whole = (size - RECORDS_HEADER_BYTES) // RECORD_BYTES
    keep = RECORDS_HEADER_BYTES + whole * RECORD_BYTES
    if keep != size:
        with open(path, "rb+") as fh:
            fh.truncate(keep)


# ----------------------------------------------------------------------
# string table
# ----------------------------------------------------------------------

STRINGS_MAGIC = b"RPROSTR2"
KIND_STRUCTURE = 0
KIND_DETAIL = 1
#: Sized to the record lanes: 4-bit structure ids, 16-bit detail ids.
MAX_STRINGS = {KIND_STRUCTURE: 1 << 4, KIND_DETAIL: 1 << 16}

_ENTRY_HEADER = struct.Struct("<BH")  # kind, utf-8 byte length


def load_strings(path):
    """Parse a string table: ``(structures, details, valid_bytes)``.

    Ids are implicit append order per kind.  A torn trailing entry (the
    footprint of a kill mid-intern) is tolerated and excluded from
    ``valid_bytes``; corruption before that is an error.  An orphan
    *intact* entry -- flushed for a record that never made it to disk --
    is harmless: re-interning the same string reuses it.
    """
    try:
        blob = path.read_bytes()
    except OSError:
        return [], [], len(STRINGS_MAGIC)
    if len(blob) < len(STRINGS_MAGIC):
        return [], [], len(STRINGS_MAGIC)  # torn header
    if blob[:len(STRINGS_MAGIC)] != STRINGS_MAGIC:
        raise StoreError(
            f"{path} is not a format-2 string table (bad magic)")
    tables = ([], [])
    pos = len(STRINGS_MAGIC)
    while pos + _ENTRY_HEADER.size <= len(blob):
        kind, length = _ENTRY_HEADER.unpack_from(blob, pos)
        if kind not in (KIND_STRUCTURE, KIND_DETAIL):
            raise StoreError(
                f"corrupt string table at {path} offset {pos}: "
                f"unknown kind {kind}")
        end = pos + _ENTRY_HEADER.size + length
        if end > len(blob):
            break  # torn trailing entry
        try:
            text = blob[pos + _ENTRY_HEADER.size:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreError(
                f"corrupt string table at {path} offset {pos}: {exc}")
        tables[kind].append(text)
        pos = end
    return tables[0], tables[1], pos


def recover_strings_tail(path):
    """Truncate a torn trailing entry (or torn header) in place."""
    _, _, valid = load_strings(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        size = -1
    if size < len(STRINGS_MAGIC):
        path.write_bytes(STRINGS_MAGIC)
    elif size > valid:
        with open(path, "rb+") as fh:
            fh.truncate(valid)


class StringTable:
    """The append-only interned strings of one binary store.

    Opening recovers a torn tail, then appends.  :meth:`intern` flushes
    a new entry before returning its id, so callers can safely write
    records that reference it immediately afterwards.
    """

    def __init__(self, path):
        self.path = path
        recover_strings_tail(path)
        structures, details, _ = load_strings(path)
        self._ids = {
            KIND_STRUCTURE: {s: i for i, s in enumerate(structures)},
            KIND_DETAIL: {d: i for i, d in enumerate(details)},
        }
        self._file = open(path, "ab")

    def intern(self, kind, text):
        table = self._ids[kind]
        ident = table.get(text)
        if ident is not None:
            return ident
        if self._file is None:
            raise StoreError("string table is closed")
        blob = text.encode("utf-8")
        if len(blob) > 0xFFFF:
            raise StoreError(
                f"string of {len(blob)} UTF-8 bytes exceeds the "
                f"format-2 entry limit (65535)")
        ident = len(table)
        if ident >= MAX_STRINGS[kind]:
            what = ("structure names" if kind == KIND_STRUCTURE
                    else "detail strings")
            raise StoreError(
                f"store exceeds the format-2 limit of "
                f"{MAX_STRINGS[kind]} distinct {what}")
        self._file.write(_ENTRY_HEADER.pack(kind, len(blob)) + blob)
        self._file.flush()
        table[text] = ident
        return ident

    def close(self):
        if self._file is not None:
            self._file.close()
            self._file = None


# ----------------------------------------------------------------------
# mmap-backed record reader
# ----------------------------------------------------------------------

class PackedReader:
    """Lane-wise view of a format-2 record file.

    The record file is mapped read-only; :meth:`lane` extracts one
    field for all records as a uint64 array.  A trailing partial record
    (torn tail) is ignored, exactly as the JSONL reader ignores a torn
    final line.
    """

    def __init__(self, records_path, strings_path):
        self.records_path = records_path
        self.structures, self.details, _ = load_strings(strings_path)
        try:
            size = os.path.getsize(records_path)
        except OSError:
            size = 0
        if size >= RECORDS_HEADER_BYTES:
            raw = np.memmap(records_path, dtype=np.uint8, mode="r")
            check_records_header(
                bytes(raw[:RECORDS_HEADER_BYTES]), records_path)
            n = (size - RECORDS_HEADER_BYTES) // RECORD_BYTES
            self._rows = raw[
                RECORDS_HEADER_BYTES:
                RECORDS_HEADER_BYTES + n * RECORD_BYTES
            ].reshape(n, RECORD_BYTES)
        else:
            # Missing file, or killed before the header flush: empty.
            self._rows = np.zeros((0, RECORD_BYTES), dtype=np.uint8)
        self._lanes = {}

    def __len__(self):
        return self._rows.shape[0]

    def lane(self, name):
        arr = self._lanes.get(name)
        if arr is None:
            offset, width = LANE_MAP[name]
            arr = extract_lane(self._rows, offset, width)
            self._lanes[name] = arr
        return arr

    def check_duplicates(self):
        """Raise if any fault index appears twice (double-append)."""
        index = self.lane("index")
        values, counts = np.unique(index, return_counts=True)
        if len(values) != len(index):
            dup = int(values[counts > 1][0])
            raise StoreError(
                f"duplicate fault index #{dup} in {self.records_path}: "
                f"the store was double-appended; delete it and re-run")

    def _names(self, lane, table, what):
        ids = self.lane(lane)
        if len(ids) and int(ids.max()) >= len(table):
            raise StoreError(
                f"record references {what} id {int(ids.max())} but the "
                f"string table holds {len(table)} -- {self.records_path}"
                f" is corrupt")
        lookup = np.array(list(table) or [""], dtype=object)
        return lookup[ids.astype(np.intp)]

    def structure_names(self):
        return self._names("structure_id", self.structures, "structure")

    def detail_names(self):
        return self._names("detail_id", self.details, "detail")

    def fclass_codes(self):
        codes = self.lane("fclass")
        if len(codes) and int(codes.max()) >= len(FCLASS_BY_CODE):
            raise StoreError(
                f"corrupt fault class code {int(codes.max())} in "
                f"{self.records_path}")
        return codes

    def fclass_values(self):
        lookup = np.array([f.value for f in FCLASS_BY_CODE],
                          dtype=object)
        return lookup[self.fclass_codes().astype(np.intp)]

    def pruned_tags(self):
        codes = self.lane("pruned")
        if len(codes) and int(codes.max()) >= len(PRUNED_BY_CODE):
            raise StoreError(
                f"corrupt pruned code {int(codes.max())} in "
                f"{self.records_path}")
        return codes

    def class_tally(self):
        """Per-class counts off the lanes -- no per-record objects."""
        codes = self.fclass_codes()
        counts = np.bincount(codes.astype(np.intp),
                             minlength=len(FCLASS_BY_CODE))
        classes = {f.value: int(c)
                   for f, c in zip(FCLASS_BY_CODE, counts)}
        masked = counts[FCLASS_CODES[FaultClass.MASKED]]
        return {
            "n": int(len(codes)),
            "unsafe": int(len(codes) - masked),
            "pruned": int(np.count_nonzero(self.pruned_tags())),
            "classes": classes,
        }


# ----------------------------------------------------------------------
# RLE lifetime-trace codec
# ----------------------------------------------------------------------

TRACE_MAGIC = b"RPROTRC2"


def _delta_width(max_delta):
    for width in (1, 2, 4):
        if max_delta < (1 << (8 * width)):
            return width
    return 8


def encode_trace(snapshot):
    """A :meth:`LifetimeTrace.snapshot` as a compact RLE blob.

    Event streams are sorted monotone integers, so each is stored as
    its first value plus run-length-encoded deltas; the analyze step
    picks the narrowest byte width that holds the stream's largest
    delta (register-file access patterns are loops, so runs are long
    and deltas small).  The snapshot's write-born marks are not
    persisted: a trace read back from a store serves reports, never a
    pruner, and :func:`decode_trace` restores it with none.
    """
    events, bits_per_cell, reachable = snapshot[:3]
    out = [TRACE_MAGIC, struct.pack("<I", len(bits_per_cell))]
    for structure in sorted(bits_per_cell):
        name = structure.encode("utf-8")
        out.append(struct.pack("<H", len(name)) + name)
        out.append(struct.pack("<I", bits_per_cell[structure]))
        cells_reach = reachable.get(structure)
        if cells_reach is None:
            out.append(b"\x00")
        else:
            rc = sorted(cells_reach)
            out.append(b"\x01" + struct.pack("<I", len(rc)))
            out.append(np.asarray(rc, dtype="<u4").tobytes())
        cells = events.get(structure, {})
        out.append(struct.pack("<I", len(cells)))
        for cell in sorted(cells):
            stream = cells[cell]
            out.append(struct.pack("<II", cell, len(stream)))
            if not stream:
                continue
            arr = np.asarray(stream, dtype=np.int64)
            # Encoded events are (cycle << 1) | is_write: cycles are
            # monotone but a write (odd) followed by a read (even) at
            # the *same* cycle steps back by exactly 1, so deltas are
            # stored with a +1 bias to stay unsigned.
            deltas = np.diff(arr) + 1
            if len(deltas) and int(deltas.min()) < 0:
                raise StoreError(
                    f"event stream for {structure}[{cell}] is not "
                    f"sorted; refusing to encode")
            width = _delta_width(
                int(deltas.max()) if len(deltas) else 0)
            if len(deltas):
                starts = np.concatenate(
                    ([0], np.flatnonzero(np.diff(deltas)) + 1))
                run_values = deltas[starts]
                run_counts = np.diff(
                    np.concatenate((starts, [len(deltas)])))
            else:
                run_values = run_counts = np.zeros(0, dtype=np.int64)
            out.append(struct.pack("<QBI", int(arr[0]), width,
                                   len(run_values)))
            out.append(run_counts.astype("<u4").tobytes())
            out.append(run_values.astype(f"<u{width}").tobytes())
    return b"".join(out)


def decode_trace(blob):
    """Inverse of :func:`encode_trace`: the snapshot tuple (with no
    write-born marks)."""
    if blob[:len(TRACE_MAGIC)] != TRACE_MAGIC:
        raise StoreError("not a format-2 trace file (bad magic)")
    pos = len(TRACE_MAGIC)

    def take(fmt):
        nonlocal pos
        values = struct.unpack_from(fmt, blob, pos)
        pos += struct.calcsize(fmt)
        return values

    try:
        events, bits, reachable = {}, {}, {}
        (n_structures,) = take("<I")
        for _ in range(n_structures):
            (name_len,) = take("<H")
            name = blob[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (bits[name],) = take("<I")
            (flag,) = take("<B")
            if flag:
                (count,) = take("<I")
                cells = np.frombuffer(blob, dtype="<u4", count=count,
                                      offset=pos)
                pos += 4 * count
                reachable[name] = frozenset(int(c) for c in cells)
            else:
                reachable[name] = None
            (n_cells,) = take("<I")
            streams = {}
            for _ in range(n_cells):
                cell, n_events = take("<II")
                if n_events == 0:
                    streams[cell] = []
                    continue
                first, width, n_runs = take("<QBI")
                if width not in (1, 2, 4, 8):
                    raise StoreError(
                        f"corrupt trace: delta width {width}")
                counts = np.frombuffer(blob, dtype="<u4", count=n_runs,
                                       offset=pos)
                pos += 4 * n_runs
                values = np.frombuffer(blob, dtype=f"<u{width}",
                                       count=n_runs, offset=pos)
                pos += width * n_runs
                deltas = np.repeat(values.astype(np.int64) - 1,
                                   counts.astype(np.intp))
                if len(deltas) != n_events - 1:
                    raise StoreError(
                        "corrupt trace: run lengths disagree with the "
                        "event count")
                stream = np.concatenate(
                    ([first], first + np.cumsum(deltas)))
                streams[cell] = [int(v) for v in stream]
            events[name] = streams
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise StoreError(f"corrupt trace file: {exc}")
    return events, bits, reachable, frozenset()
