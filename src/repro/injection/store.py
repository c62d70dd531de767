"""Resumable on-disk campaign store: durable fault records + manifest.

A campaign store makes the faulty phase of a campaign durable and
resumable.  One store directory holds one campaign:

* ``manifest.json`` -- the campaign's identity (workload, level,
  structure and every result-affecting
  :meth:`~repro.injection.campaign.CampaignConfig.identity` knob), the
  record format, the repository's ``git describe`` at creation time,
  and -- once the golden phase has run -- the golden summary that lets
  a fully completed campaign resume without simulating anything at all;
* the fault records, in one of two formats:

  - **format 2 (binary, the default for fresh stores)** --
    ``records.bin`` holds fixed-width bitpacked records
    (:data:`~repro.injection.storefmt.RECORD_BYTES` bytes each),
    ``strings.dat`` interns structure/detail strings, and ``trace.bin``
    (optional) carries the run-length-encoded golden lifetime trace.
    Reads are mmap-backed numpy lane views, so tallies and diffs over
    10^6 faults never materialize per-record Python objects;
  - **format 1 (JSONL)** -- ``records.jsonl``, one JSON object per
    fault.  Kept as a human-greppable debug format
    (``repro-study store <dir> --export jsonl`` converts either way).

Both formats are append-only and flushed per record, so a killed
campaign loses at most the fault that was in flight.

Quarantined faults -- sampled faults that spent their retry budget
killing, stalling or crashing their runs (:class:`~repro.injection
.classify.Incident`, ``disposition="error"``) -- persist in an
``incidents.jsonl`` sidecar next to the records file, whatever the
record format.  Keeping them out of ``records.bin`` keeps the
fixed-width format 2 layout untouched (an incident has no class, no
cycle counts -- packing it would poison every columnar lane read) while
staying human-greppable at the moment a human most wants to grep.  On
resume, incident indices count as *done*: a poison fault is never
re-run, so resuming a degraded campaign is a no-op.

Resume semantics: fault samples are a pure function of the manifest
identity (same seed, same distribution), so a resumed campaign redraws
the identical sample list, skips every index already on disk and runs
only the remainder.  Records from both sessions merge by index into a
sequence whose classifications (class, detail, sim_cycles) are
bit-identical to an uninterrupted run; only per-session accounting
(``wall_seconds`` -- microsecond-quantized in format 2 --  and
``replay_cycles``) reflects how each session actually executed.  A
half-written trailing record (the in-flight fault of a kill) is
truncated away on open; any earlier corruption, a duplicated fault
index, or an identity mismatch is an error, never a silent partial
resume.  A records file without a manifest (a crash in the window
between store creation and the manifest write, or a hand-deleted
manifest) is *refused* on a fresh start rather than wiped.
"""

import json
import os
import pathlib
import subprocess
import time

import numpy as np

from repro.injection import storefmt
from repro.injection.classify import FaultClass, FaultRecord, Incident
from repro.injection.faults import FaultSpec
from repro.injection.storefmt import StoreError, StoreMismatchError

#: Manifest formats this code reads, and the default for fresh stores.
FORMAT_JSONL = 1
FORMAT_BINARY = 2
FORMATS = (FORMAT_JSONL, FORMAT_BINARY)
FORMAT = FORMAT_BINARY

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"
BINARY_RECORDS_NAME = "records.bin"
STRINGS_NAME = "strings.dat"
TRACE_NAME = "trace.bin"
#: Quarantined-fault sidecar (JSONL in both record formats).
INCIDENTS_NAME = "incidents.jsonl"

_FORMAT_NAMES = {"jsonl": FORMAT_JSONL, "binary": FORMAT_BINARY}


def normalize_format(store_format):
    """A user-facing format name/number as a format code (or None)."""
    if store_format is None or store_format in FORMATS:
        return store_format
    try:
        return _FORMAT_NAMES[store_format]
    except (KeyError, TypeError):
        raise StoreError(
            f"unknown store format {store_format!r} "
            f"(choose 'binary' or 'jsonl')")


def format_name(fmt):
    return {FORMAT_JSONL: "jsonl", FORMAT_BINARY: "binary"}.get(
        fmt, str(fmt))


def git_describe():
    """``git describe`` of the enclosing repo, or None outside one.

    Purely informational provenance -- a mismatch never blocks resume
    (the result-affecting identity is recorded explicitly).
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def record_to_json(index, record):
    """One :class:`FaultRecord` as a JSONL-ready dict."""
    return {
        "i": index,
        "structure": record.fault.structure,
        "bit": record.fault.bit,
        "cycle": record.fault.cycle,
        "original_cycle": record.fault.original_cycle,
        "fclass": record.fclass.value,
        "detail": record.detail,
        "sim_cycles": record.sim_cycles,
        "wall_seconds": record.wall_seconds,
        "replay_cycles": record.replay_cycles,
        "pruned": record.pruned,
    }


def record_from_json(blob):
    """Inverse of :func:`record_to_json`; returns ``(index, record)``."""
    fault = FaultSpec(blob["structure"], blob["bit"], blob["cycle"],
                      original_cycle=blob["original_cycle"])
    record = FaultRecord(
        fault, FaultClass(blob["fclass"]), blob["detail"],
        sim_cycles=blob["sim_cycles"],
        wall_seconds=blob["wall_seconds"],
        replay_cycles=blob.get("replay_cycles", 0),
        pruned=blob.get("pruned", ""),
    )
    return blob["i"], record


def incident_to_json(incident):
    """One :class:`Incident` as a JSONL-ready dict."""
    return {
        "i": incident.index,
        "disposition": incident.disposition,
        "structure": incident.fault.structure,
        "bit": incident.fault.bit,
        "cycle": incident.fault.cycle,
        "original_cycle": incident.fault.original_cycle,
        "kind": incident.kind,
        "detail": incident.detail,
        "attempts": incident.attempts,
    }


def incident_from_json(blob):
    """Inverse of :func:`incident_to_json`; returns ``(index, incident)``."""
    fault = FaultSpec(blob["structure"], blob["bit"], blob["cycle"],
                      original_cycle=blob["original_cycle"])
    incident = Incident(blob["i"], fault, blob["kind"],
                        detail=blob.get("detail", ""),
                        attempts=blob.get("attempts", 1))
    return blob["i"], incident


class CampaignStore:
    """One campaign's on-disk record set.

    Lifecycle: construct with a directory path, then :meth:`begin` with
    the campaign identity (creates or validates), :meth:`append` per
    completed fault, :meth:`set_golden` after the golden phase.  A
    store can also be read standalone (reports, merging, tallies)
    through :meth:`manifest`/:meth:`records`/:meth:`class_tally`
    without :meth:`begin`.

    ``store_format`` picks the record format for *fresh* stores
    (``"binary"``/``"jsonl"``, default binary); an existing store keeps
    the format its manifest declares, and an explicit conflicting
    request is an error rather than a silent rewrite.
    """

    def __init__(self, path, store_format=None):
        self.path = pathlib.Path(path)
        self._requested_format = normalize_format(store_format)
        self._format = None
        self._records_file = None
        self._strings = None
        self._incidents_file = None

    @property
    def manifest_path(self):
        return self.path / MANIFEST_NAME

    @property
    def records_path(self):
        return self.path / RECORDS_NAME

    @property
    def binary_path(self):
        return self.path / BINARY_RECORDS_NAME

    @property
    def strings_path(self):
        return self.path / STRINGS_NAME

    @property
    def trace_path(self):
        return self.path / TRACE_NAME

    @property
    def incidents_path(self):
        return self.path / INCIDENTS_NAME

    def exists(self):
        return self.manifest_path.exists()

    def format(self):
        """The store's resolved record format code.

        The manifest's format when one exists, else whichever records
        file is on disk, else the requested (or default) format for a
        fresh store.  An explicit request that conflicts with an
        existing store raises :class:`StoreError`.
        """
        if self.exists():
            fmt = self.manifest()["format"]
        elif self.binary_path.exists():
            fmt = FORMAT_BINARY
        elif self.records_path.exists():
            fmt = FORMAT_JSONL
        else:
            return self._requested_format or FORMAT
        if self._requested_format not in (None, fmt):
            raise StoreError(
                f"store at {self.path} is "
                f"{format_name(fmt)} (format {fmt}) but "
                f"{format_name(self._requested_format)} was requested; "
                f"delete the directory to rewrite it")
        return fmt

    def _read_format(self):
        # For read-only paths: never enforces the requested format.
        if self.exists():
            return self.manifest()["format"]
        if self.binary_path.exists():
            return FORMAT_BINARY
        return FORMAT_JSONL

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def begin(self, identity, resume=False):
        """Open the store for a campaign with ``identity``.

        Fresh start (``resume=False``): allowed only when the store is
        absent or still empty -- an existing store with completed
        records is hours of simulation, so overwriting it without
        ``resume`` raises :class:`StoreError` instead of silently
        discarding them (delete the directory to really start over).
        That refusal also covers orphaned records files whose manifest
        is missing.  Resume: the stored identity must match exactly
        (:class:`StoreMismatchError` otherwise) and a torn trailing
        record -- the footprint of a kill mid-write -- is truncated
        away.  Returns the records already on disk,
        ``{index: FaultRecord}``.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        stored = {}
        if resume and self.exists():
            fmt = self.format()
            manifest = self.manifest()
            if manifest.get("identity") != identity:
                raise StoreMismatchError(
                    f"store at {self.path} was written by a different "
                    f"campaign:\n  stored:  {manifest.get('identity')}"
                    f"\n  current: {identity}"
                )
            self._recover_records_tail(fmt)
            stored = self.records()
        else:
            if self.exists():
                existing = self.records()
                if existing:
                    raise StoreError(
                        f"store at {self.path} already holds "
                        f"{len(existing)} completed records; pass "
                        f"resume (--resume) to continue it, or delete "
                        f"the directory to start over"
                    )
            else:
                self._refuse_orphan_records()
            fmt = self._requested_format or FORMAT
            self._write_manifest({
                "format": fmt,
                "identity": identity,
                "git": git_describe(),
                "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            })
            self._init_records(fmt)
        self._format = fmt
        if fmt == FORMAT_BINARY:
            self._strings = storefmt.StringTable(self.strings_path)
            self._records_file = open(self.binary_path, "ab")
        else:
            self._records_file = open(self.records_path, "a",
                                      encoding="utf-8")
        return stored

    def _refuse_orphan_records(self):
        # Satellite of the durability contract: a records file without
        # a manifest is evidence of a crash (or a hand-deleted
        # manifest), not a blank slate -- never wipe it.
        for path, empty_size in (
                (self.records_path, 0),
                (self.incidents_path, 0),
                (self.binary_path, storefmt.RECORDS_HEADER_BYTES)):
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size > empty_size:
                raise StoreError(
                    f"{path} holds completed records but "
                    f"{self.manifest_path} is missing; refusing to "
                    f"overwrite them -- restore the manifest or delete "
                    f"the store directory to start over")

    def _init_records(self, fmt):
        for stale in (self.records_path, self.binary_path,
                      self.strings_path, self.trace_path,
                      self.incidents_path):
            stale.unlink(missing_ok=True)
        if fmt == FORMAT_BINARY:
            self.binary_path.write_bytes(storefmt.records_header())
        else:
            self.records_path.write_text("")

    def close(self):
        if self._records_file is not None:
            self._records_file.close()
            self._records_file = None
        if self._strings is not None:
            self._strings.close()
            self._strings = None
        if self._incidents_file is not None:
            self._incidents_file.close()
            self._incidents_file = None

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def manifest(self):
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            raise StoreError(f"no campaign store at {self.path}")
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"corrupt manifest at {self.manifest_path}: {exc}"
            )
        if manifest.get("format") not in FORMATS:
            raise StoreError(
                f"store at {self.path} has format "
                f"{manifest.get('format')!r}, this code reads formats "
                f"{list(FORMATS)} -- re-run the campaign to rewrite it"
            )
        return manifest

    def _write_manifest(self, manifest):
        # Atomic rewrite: a crash mid-write must not tear the manifest.
        tmp = self.manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                       + "\n")
        os.replace(tmp, self.manifest_path)

    def set_golden(self, golden_cycles, golden_insts, end_cycle,
                   population, bits, trace=None):
        """Record the golden summary so a fully completed campaign can
        later resume into a result -- and redraw its fault samples for
        cross-checking -- without simulating.

        For binary stores, a golden lifetime ``trace`` is also
        persisted (RLE-encoded, atomically) so prune decisions survive
        alongside the records they explain.
        """
        manifest = self.manifest()
        manifest["golden"] = {
            "cycles": golden_cycles,
            "insts": golden_insts,
            "end_cycle": end_cycle,
            "population": population,
            "bits": bits,
        }
        self._write_manifest(manifest)
        if trace is not None and manifest["format"] == FORMAT_BINARY:
            tmp = self.trace_path.with_suffix(".tmp")
            tmp.write_bytes(storefmt.encode_trace(trace.snapshot()))
            os.replace(tmp, self.trace_path)

    def golden_info(self):
        """The recorded golden summary, or None before the golden phase."""
        return self.manifest().get("golden")

    def golden_trace(self):
        """The persisted golden lifetime trace, or None if absent."""
        try:
            blob = self.trace_path.read_bytes()
        except FileNotFoundError:
            return None
        from repro.prune.trace import LifetimeTrace
        trace = LifetimeTrace()
        trace.restore(storefmt.decode_trace(blob))
        return trace

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def append(self, index, record):
        """Durably append one completed fault (flushed per record)."""
        if self._records_file is None:
            raise StoreError("store not opened with begin()")
        if self._format == FORMAT_BINARY:
            # Interning flushes new strings before the record that
            # references them hits the file, so an intact record never
            # dangles (an orphan string after a kill is harmless).
            sid = self._strings.intern(storefmt.KIND_STRUCTURE,
                                       record.fault.structure)
            did = self._strings.intern(storefmt.KIND_DETAIL,
                                       record.detail)
            self._records_file.write(
                storefmt.pack_record(index, record, sid, did))
        else:
            self._records_file.write(
                json.dumps(record_to_json(index, record)) + "\n"
            )
        self._records_file.flush()

    def records(self):
        """All intact records on disk, ``{index: FaultRecord}``.

        A torn final record (kill mid-append) is ignored; corruption
        anywhere earlier, or a duplicated fault index (double-append),
        raises :class:`StoreError`.
        """
        if self._read_format() == FORMAT_BINARY:
            return self._binary_records()
        return self._jsonl_records()

    def _jsonl_records(self):
        out = {}
        try:
            lines = self.records_path.read_text().split("\n")
        except FileNotFoundError:
            return out
        # split() leaves a trailing "" for a newline-terminated file;
        # anything non-empty after the last newline is a torn record.
        for lineno, line in enumerate(lines):
            if not line:
                continue
            try:
                index, record = record_from_json(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                if lineno == len(lines) - 1:
                    continue  # torn tail: the in-flight fault of a kill
                raise StoreError(
                    f"corrupt record at {self.records_path}:"
                    f"{lineno + 1}: {exc}"
                )
            if index in out:
                raise StoreError(
                    f"duplicate fault index #{index} at "
                    f"{self.records_path}:{lineno + 1}: the store was "
                    f"double-appended; delete it and re-run")
            out[index] = record
        return out

    def _reader(self):
        return storefmt.PackedReader(self.binary_path,
                                     self.strings_path)

    def _binary_records(self):
        reader = self._reader()
        reader.check_duplicates()
        out = {}
        if not len(reader):
            return out
        index = reader.lane("index").tolist()
        structure = reader.structure_names().tolist()
        detail = reader.detail_names().tolist()
        fclass = [storefmt.FCLASS_BY_CODE[c]
                  for c in reader.fclass_codes().tolist()]
        pruned = [storefmt.PRUNED_BY_CODE[c]
                  for c in reader.pruned_tags().tolist()]
        bit = reader.lane("bit").tolist()
        cycle = reader.lane("cycle").tolist()
        original = reader.lane("original_cycle").tolist()
        sim = reader.lane("sim_cycles").tolist()
        replay = reader.lane("replay_cycles").tolist()
        wall = reader.lane("wall_us").tolist()
        for k in range(len(index)):
            fault = FaultSpec(structure[k], bit[k], cycle[k],
                              original_cycle=original[k])
            out[index[k]] = FaultRecord(
                fault, fclass[k], detail[k], sim_cycles=sim[k],
                wall_seconds=wall[k] / 1e6,
                replay_cycles=replay[k], pruned=pruned[k])
        return out

    def append_incident(self, incident):
        """Durably append one quarantined fault to the sidecar.

        Lazily creates ``incidents.jsonl`` on the first incident, so a
        clean campaign's store has no sidecar at all -- the file's very
        existence means "this campaign degraded at least once".
        Flushed per incident, same durability as :meth:`append`.
        """
        if self._records_file is None:
            raise StoreError("store not opened with begin()")
        if self._incidents_file is None:
            self._incidents_file = open(self.incidents_path, "a",
                                        encoding="utf-8")
        self._incidents_file.write(
            json.dumps(incident_to_json(incident)) + "\n")
        self._incidents_file.flush()

    def incidents(self):
        """All intact quarantined faults, ``{index: Incident}``.

        Same tail contract as :meth:`records`: a torn final line (kill
        mid-append) is ignored, earlier corruption or a duplicated
        index raises :class:`StoreError`.  An absent sidecar is simply
        an incident-free campaign.
        """
        out = {}
        try:
            lines = self.incidents_path.read_text().split("\n")
        except FileNotFoundError:
            return out
        for lineno, line in enumerate(lines):
            if not line:
                continue
            try:
                index, incident = incident_from_json(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                if lineno == len(lines) - 1:
                    continue  # torn tail: the in-flight quarantine
                raise StoreError(
                    f"corrupt incident at {self.incidents_path}:"
                    f"{lineno + 1}: {exc}"
                )
            if index in out:
                raise StoreError(
                    f"duplicate fault index #{index} at "
                    f"{self.incidents_path}:{lineno + 1}: the sidecar "
                    f"was double-appended; delete the store and re-run")
            out[index] = incident
        return out

    def incident_count(self):
        """How many faults this campaign quarantined (0 = clean)."""
        return len(self.incidents())

    def class_tally(self):
        """Per-class record counts without materializing records.

        Returns ``{"n", "unsafe", "pruned", "classes": {value: count}}``.
        Format 2 tallies numpy lanes straight off the mmap; format 1
        falls back to parsing records.
        """
        if self._read_format() == FORMAT_BINARY:
            reader = self._reader()
            reader.check_duplicates()
            return reader.class_tally()
        records = self.records()
        classes = {f.value: 0 for f in storefmt.FCLASS_BY_CODE}
        for record in records.values():
            classes[record.fclass.value] += 1
        return {
            "n": len(records),
            "unsafe": sum(1 for r in records.values()
                          if r.fclass is not FaultClass.MASKED),
            "pruned": sum(1 for r in records.values() if r.pruned),
            "classes": classes,
        }

    def sequence_arrays(self):
        """The classification sequence as columnar numpy arrays.

        ``{"index", "structure", "bit", "original_cycle", "fclass"}``
        sorted by fault index -- the exact identity
        ``tools/diff_store_classes.py`` compares.  Format 2 reads lanes
        off the mmap (no per-record objects); format 1 falls back to
        parsed records.
        """
        if self._read_format() == FORMAT_BINARY:
            reader = self._reader()
            reader.check_duplicates()
            order = np.argsort(reader.lane("index"), kind="stable")
            return {
                "index": reader.lane("index")[order],
                "structure": reader.structure_names()[order],
                "bit": reader.lane("bit")[order],
                "original_cycle":
                    reader.lane("original_cycle")[order],
                "fclass": reader.fclass_values()[order],
            }
        records = self.records()
        idx = sorted(records)
        return {
            "index": np.asarray(idx, dtype=np.uint64),
            "structure": np.asarray(
                [records[i].fault.structure for i in idx],
                dtype=object),
            "bit": np.asarray(
                [records[i].fault.bit for i in idx],
                dtype=np.uint64),
            "original_cycle": np.asarray(
                [records[i].fault.original_cycle for i in idx],
                dtype=np.uint64),
            "fclass": np.asarray(
                [records[i].fclass.value for i in idx], dtype=object),
        }

    def export_jsonl(self):
        """Yield the store's records as JSONL lines, in index order.

        The debug export: re-importing the lines with
        :func:`record_from_json` reproduces the stored records exactly
        (for binary stores, ``wall_seconds`` carries the store's
        microsecond quantization).
        """
        records = self.records()
        for index in sorted(records):
            yield json.dumps(record_to_json(index, records[index]))

    def _recover_records_tail(self, fmt=None):
        """Truncate a half-written final record in place."""
        if fmt is None:
            fmt = self._read_format()
        self._recover_jsonl_tail(self.incidents_path, create=False)
        if fmt == FORMAT_BINARY:
            storefmt.recover_records_tail(self.binary_path)
            storefmt.recover_strings_tail(self.strings_path)
            return
        self._recover_jsonl_tail(self.records_path, create=True)

    @staticmethod
    def _recover_jsonl_tail(path, create):
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            if create:
                path.write_text("")
            return
        if blob and not blob.endswith(b"\n"):
            keep = blob.rfind(b"\n") + 1
            path.write_bytes(blob[:keep])

    def __repr__(self):
        return f"CampaignStore({str(self.path)!r})"


def as_store(store, store_format=None):
    """``store`` as a :class:`CampaignStore`: a directory path opens
    one (``store_format`` picks the format of a fresh one); a store or
    ``None`` passes through."""
    if store is None or isinstance(store, CampaignStore):
        return store
    return CampaignStore(store, store_format=store_format)


def load_store(path):
    """Read one store: ``(manifest, {index: FaultRecord})``."""
    store = CampaignStore(path)
    return store.manifest(), store.records()


def load_stores(paths):
    """Read and merge several stores for reporting.

    Returns a list of ``(manifest, records)`` pairs, one per store, in
    the given order.  Stores are independent campaigns (different
    workloads/levels/structures), so merging means collecting, not
    concatenating records.
    """
    return [load_store(path) for path in paths]
