"""Memory-mapped reader for compiled corpus stores (``.mosc``).

:class:`CorpusStore` attaches a compiled corpus with one ``mmap`` and
exposes every section as a zero-copy NumPy view — no per-trace Python
object is built until :meth:`CorpusStore.decode_trace` is asked for one.
Workers receive a tiny picklable :class:`StoreSlice` descriptor instead
of pickled traces and reattach through :func:`attach`, which caches one
read-only store per ``(path, pid)``: a pool rebuilt after a crash-kill
(or a ``--resume`` in a new process) re-opens the file instead of
reusing a file descriptor inherited from a dead parent.

Hostile-input posture (docs/COLUMNAR.md): the file size, header CRC,
section geometry, and every index offset/length are validated against
:class:`~repro.darshan.limits.DecodeLimits` *before* any section is
interpreted; ``verify=True`` additionally CRC-checks the section
payloads.  Any failure raises
:class:`~repro.darshan.errors.TraceFormatError`, never an OOM or an
out-of-bounds view.

SIGBUS safety: a store truncated *after* it was mapped (an operator
``truncate``, a filesystem losing tail blocks) would turn any read of
the vanished pages into a process-killing ``SIGBUS``.  Every accessor
therefore calls :meth:`CorpusStore.guard` first — an ``fstat`` on a
dup'd descriptor of the mapped file comparing the *current* size
against the mapped extent — converting truncation-under-mmap into an
ordinary :class:`TraceFormatError` the pipeline quarantines per trace.
"""

from __future__ import annotations

import mmap
import os
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..darshan.errors import TraceFormatError
from ..darshan.limits import DEFAULT_LIMITS, DecodeLimits, check_declared_size
from ..darshan.records import FileRecord, JobMeta
from ..darshan.trace import OperationArray, Trace, record_metadata_events
from ..darshan.validate import Violation
from .format import (
    ALIGN,
    FLAG_REPAIRED,
    HEADER_SIZE,
    MIN_HEADER_SIZE,
    RECORD_DTYPE,
    TRACE_CRC_DTYPE,
    TRACE_DTYPE,
    header_size,
    section_names,
    unpack_header,
    violations_from_mask,
)

if TYPE_CHECKING:
    from ..core.preprocess import SelectionPlan

__all__ = ["CorpusStore", "StoreSlice", "attach", "detach_all"]


@dataclass(slots=True, frozen=True)
class StoreSlice:
    """A worker task: categorize ``rows`` of the store at ``path``.

    Pickles in O(len(rows)) bytes — the zero-copy replacement for
    shipping whole ``Trace`` objects through the pool.
    """

    path: str
    rows: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rows)


def _expected_nbytes(header: dict) -> dict[str, int]:
    expected = {
        "index": header["n_traces"] * TRACE_DTYPE.itemsize,
        "records": header["n_records"] * RECORD_DTYPE.itemsize,
        "ops_starts": header["n_ops"] * 8,
        "ops_ends": header["n_ops"] * 8,
        "ops_volumes": header["n_ops"] * 8,
        "heap": header["heap_len"],
    }
    if header["version"] >= 2:
        expected["trace_crcs"] = header["n_traces"] * TRACE_CRC_DTYPE.itemsize
    return expected


class CorpusStore:
    """One attached (read-only, memory-mapped) compiled corpus."""

    def __init__(
        self,
        path: str,
        *,
        limits: DecodeLimits = DEFAULT_LIMITS,
        verify: bool = True,
        strict: bool = True,
    ) -> None:
        self.path = os.fspath(path)
        self._limits = limits
        self._fd = -1
        #: Rows whose index entry points outside its sections (tolerant
        #: mode only; always empty when ``strict=True`` succeeded).
        self.bad_rows: frozenset[int] = frozenset()
        size = os.path.getsize(self.path)
        if size < MIN_HEADER_SIZE:
            raise TraceFormatError(
                f"store {self.path!r} is {size} bytes — smaller than the "
                f"{MIN_HEADER_SIZE}-byte minimum header"
            )
        check_declared_size(
            size, size, "corpus store", limits.max_payload_bytes
        )
        with open(self.path, "rb") as fh:
            self._mmap = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            # Keep a descriptor of the *mapped* file (not its path, which
            # may be atomically replaced later) so guard() can detect
            # truncation of these very pages before a read hits SIGBUS.
            self._fd = os.dup(fh.fileno())
        self._mapped_size = size
        try:
            header = unpack_header(bytes(self._mmap[: min(size, HEADER_SIZE)]))
        except ValueError as exc:
            self.close()
            raise TraceFormatError(f"store {self.path!r}: {exc}") from None
        try:
            self._validate_geometry(header, size)
            self._load_sections(header)
            if verify:
                self._verify_crcs(header)
            self._validate_index(strict=strict)
        except TraceFormatError:
            self.close()
            raise
        self.version: int = header["version"]
        self.flags: int = header["flags"]
        self.n_unreadable: int = header["n_unreadable"]
        #: Pass ① of this attachment, kept by ``run_pipeline_store``: a
        #: compiled store is immutable, and a recompiled one is a new
        #: attachment (see :func:`attach`).
        self.scan_memo: SelectionPlan | None = None

    # -- construction helpers ------------------------------------------
    def _validate_geometry(self, header: dict, size: int) -> None:
        limits = self._limits
        counts = (
            ("traces", header["n_traces"]),
            ("records", header["n_records"]),
            ("operations", header["n_ops"]),
        )
        for what, count in counts:
            if count > limits.max_records:
                raise TraceFormatError(
                    f"store {self.path!r} declares {count} {what}, over the "
                    f"decode limit {limits.max_records}"
                )
        if header["heap_len"] > limits.max_string_bytes:
            raise TraceFormatError(
                f"store {self.path!r} heap is {header['heap_len']} bytes, "
                f"over the decode limit {limits.max_string_bytes}"
            )
        expected = _expected_nbytes(header)
        hsize = header_size(header["version"])
        for name in section_names(header["version"]):
            offset, nbytes, _crc = header["sections"][name]
            if nbytes != expected[name]:
                raise TraceFormatError(
                    f"store {self.path!r} section {name!r} is {nbytes} bytes; "
                    f"the header counts imply {expected[name]} (truncated or "
                    f"bit-rotted header)"
                )
            if offset < hsize or offset % ALIGN:
                raise TraceFormatError(
                    f"store {self.path!r} section {name!r} is misplaced "
                    f"(offset {offset})"
                )
            check_declared_size(
                nbytes, size - offset, f"section {name!r}"
            )

    def _load_sections(self, header: dict) -> None:
        def view(name: str, dtype: np.dtype, count: int) -> np.ndarray:
            offset, _nbytes, _crc = header["sections"][name]
            return np.frombuffer(
                self._mmap, dtype=dtype, count=count, offset=offset
            )

        self.index = view("index", TRACE_DTYPE, header["n_traces"])
        self.records = view("records", RECORD_DTYPE, header["n_records"])
        f8 = np.dtype("<f8")
        self.ops_starts = view("ops_starts", f8, header["n_ops"])
        self.ops_ends = view("ops_ends", f8, header["n_ops"])
        self.ops_volumes = view("ops_volumes", f8, header["n_ops"])
        heap_off, heap_len, _ = header["sections"]["heap"]
        self.heap = bytes(self._mmap[heap_off : heap_off + heap_len])
        #: Per-trace CRCs (version 2+; ``None`` for legacy v1 stores).
        self.trace_crcs: np.ndarray | None = (
            view("trace_crcs", TRACE_CRC_DTYPE, header["n_traces"])
            if header["version"] >= 2
            else None
        )

    def _verify_crcs(self, header: dict) -> None:
        self.guard()
        for name in section_names(header["version"]):
            offset, nbytes, crc = header["sections"][name]
            actual = zlib.crc32(self._mmap[offset : offset + nbytes])
            if actual != crc:
                raise TraceFormatError(
                    f"store {self.path!r} section {name!r} CRC mismatch "
                    f"(bit-rotted payload)"
                )

    def _validate_index(self, *, strict: bool = True) -> None:
        """Bound every index offset/length so a corrupt index can never
        produce an out-of-bounds view, even with ``verify=False``.

        With ``strict=False`` (the salvage path), out-of-bounds rows are
        collected into :attr:`bad_rows` instead of failing the open —
        accessors must not be used on those rows.
        """
        idx = self.index
        if len(idx) == 0:
            return
        bad = np.zeros(len(idx), dtype=bool)

        def mark(off: np.ndarray, n: np.ndarray, total: int) -> np.ndarray:
            off64 = off.astype(np.int64)
            return (off64 + n.astype(np.int64) > total) | (off64 < 0)

        bad |= mark(idx["rec_off"], idx["n_records"], len(self.records))
        bad |= mark(
            idx["ops_off"],
            idx["n_read_ops"].astype(np.int64) + idx["n_write_ops"],
            len(self.ops_starts),
        )
        heap_len = len(self.heap)
        for field in ("exe", "machine", "partition"):
            bad |= mark(idx[f"{field}_off"], idx[f"{field}_len"], heap_len)
        # A record whose name points outside the heap taints the row(s)
        # whose slab contains it.
        rec_bad = mark(
            self.records["name_off"], self.records["name_len"], heap_len
        )
        if rec_bad.any():
            bad_recs = np.flatnonzero(rec_bad)
            lo = idx["rec_off"].astype(np.int64)
            hi = lo + idx["n_records"].astype(np.int64)
            # Only rows already bounds-valid can be probed against slabs.
            for row in np.flatnonzero(~bad):
                if ((bad_recs >= lo[row]) & (bad_recs < hi[row])).any():
                    bad[row] = True
        if bad.any():
            if strict:
                raise TraceFormatError(
                    f"store {self.path!r} index points outside its "
                    f"sections (bit-rotted index)"
                )
            self.bad_rows = frozenset(int(r) for r in np.flatnonzero(bad))

    # -- SIGBUS guard ---------------------------------------------------
    def guard(self) -> None:
        """Refuse to read pages that may no longer be backed by the file.

        An ``mmap`` read past the mapped file's *current* end delivers
        ``SIGBUS`` and kills the process — no Python exception, no
        quarantine, no journal entry.  This re-stats the dup'd
        descriptor of the mapped inode and raises
        :class:`TraceFormatError` if the file has shrunk below the
        mapped extent, so truncation-under-mmap degrades into an
        ordinary per-trace failure.  Cost is one ``fstat`` (~1 µs),
        paid at every accessor entry, not per element.
        """
        if self._fd < 0:
            raise TraceFormatError(f"store {self.path!r} is closed")
        try:
            current = os.fstat(self._fd).st_size
        except OSError as exc:
            raise TraceFormatError(
                f"store {self.path!r} became unreadable: {exc}"
            ) from exc
        if current < self._mapped_size:
            raise TraceFormatError(
                f"store {self.path!r} was truncated under its mapping "
                f"({current} bytes on disk, {self._mapped_size} mapped)"
            )

    # -- basic accessors ------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    @property
    def n_traces(self) -> int:
        return len(self.index)

    @property
    def compiled_with_repair(self) -> bool:
        return bool(self.flags & FLAG_REPAIRED)

    def string(self, off: int, length: int) -> str:
        return self.heap[off : off + length].decode("utf-8")

    def violations(self, row: int) -> set[Violation]:
        """Validation categories recorded at compile time (empty = valid)."""
        self.guard()
        return violations_from_mask(int(self.index[row]["violations"]))

    def is_valid(self, row: int) -> bool:
        return int(self.index[row]["violations"]) == 0

    def app_key(self, row: int) -> tuple[int, str]:
        self.guard()
        r = self.index[row]
        return (
            int(r["uid"]),
            self.string(int(r["exe_off"]), int(r["exe_len"])),
        )

    # -- zero-copy trace views ------------------------------------------
    def ops_bounds(self, row: int, direction: str) -> tuple[int, int]:
        """[lo, hi) bounds of one trace-direction slab in the ops table."""
        r = self.index[row]
        lo = int(r["ops_off"])
        n_read = int(r["n_read_ops"])
        if direction == "read":
            return lo, lo + n_read
        if direction == "write":
            return lo + n_read, lo + n_read + int(r["n_write_ops"])
        raise ValueError(f"unknown direction: {direction!r}")

    def operations(self, row: int, direction: str) -> OperationArray:
        """The trace's raw operation array, identical to
        ``decode_trace(row).operations(direction)``."""
        self.guard()
        lo, hi = self.ops_bounds(row, direction)
        if lo == hi:
            return OperationArray.empty()
        return OperationArray(
            self.ops_starts[lo:hi],
            self.ops_ends[lo:hi],
            self.ops_volumes[lo:hi],
        )

    def metadata_events_batch(
        self, rows: Sequence[int]
    ) -> tuple[np.ndarray, ...]:
        """Record-level metadata columns of many rows, no events.

        Returns ``(t0, t1, opens, n_open, n_close, offsets)``: records
        ``offsets[j]:offsets[j+1]`` are row ``rows[j]``'s slab, each
        column equal to ``decode_trace(row).metadata_columns()``.  This
        is the input of the closed-form binning kernel
        (:func:`repro.kernels.batched.bin_events_segmented`); the event
        stream a record with ``k`` opens implies is never built.
        """
        self.guard()
        rows = np.asarray(rows, dtype=np.int64)
        index = self.index
        return record_metadata_events(
            self.records, index["rec_off"][rows], index["n_records"][rows]
        )

    # -- full decode ----------------------------------------------------
    def job_meta(self, row: int) -> JobMeta:
        self.guard()
        r = self.index[row]
        return JobMeta(
            job_id=int(r["job_id"]),
            uid=int(r["uid"]),
            exe=self.string(int(r["exe_off"]), int(r["exe_len"])),
            nprocs=int(r["nprocs"]),
            start_time=float(r["start_time"]),
            end_time=float(r["end_time"]),
            machine=self.string(int(r["machine_off"]), int(r["machine_len"])),
            partition=self.string(
                int(r["partition_off"]), int(r["partition_len"])
            ),
        )

    def decode_trace(self, row: int) -> Trace:
        """Materialize one trace, bit-for-bit equal to the compiled input."""
        self.guard()
        r = self.index[row]
        lo = int(r["rec_off"])
        hi = lo + int(r["n_records"])
        records = []
        for rec in self.records[lo:hi]:
            records.append(
                FileRecord(
                    file_id=int(rec["file_id"]),
                    file_name=self.string(
                        int(rec["name_off"]), int(rec["name_len"])
                    ),
                    rank=int(rec["rank"]),
                    opens=int(rec["opens"]),
                    closes=int(rec["closes"]),
                    seeks=int(rec["seeks"]),
                    stats=int(rec["stats"]),
                    reads=int(rec["reads"]),
                    writes=int(rec["writes"]),
                    bytes_read=int(rec["bytes_read"]),
                    bytes_written=int(rec["bytes_written"]),
                    open_start=float(rec["open_start"]),
                    close_end=float(rec["close_end"]),
                    read_start=float(rec["read_start"]),
                    read_end=float(rec["read_end"]),
                    write_start=float(rec["write_start"]),
                    write_end=float(rec["write_end"]),
                    read_time=float(rec["read_time"]),
                    write_time=float(rec["write_time"]),
                    meta_time=float(rec["meta_time"]),
                )
            )
        return Trace(meta=self.job_meta(row), records=records)

    def close(self) -> None:
        if getattr(self, "_fd", -1) >= 0:
            os.close(self._fd)
            self._fd = -1
        mm = getattr(self, "_mmap", None)
        if mm is not None and not mm.closed:
            # Views into the mmap must be released first; drop them.
            for name in (
                "index",
                "records",
                "ops_starts",
                "ops_ends",
                "ops_volumes",
                "trace_crcs",
            ):
                if getattr(self, name, None) is not None:
                    delattr(self, name)
            try:
                mm.close()
            except BufferError:
                # A caller still holds a zero-copy view; the mapping is
                # reclaimed when the last view dies.
                pass

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# per-process attach cache (the mmap seam)

#: abspath → (pid, store).  Keyed by pid so a worker forked or rebuilt
#: after a crash re-opens the store read-only instead of sharing a file
#: descriptor inherited from a dead pool (see docs/COLUMNAR.md).
#: path → (pid, (ino, mtime_ns, size), verified, store)
_ATTACHED: dict[str, tuple[int, tuple[int, int, int], bool, CorpusStore]] = {}
#: FIFO bound on cached attachments; evicted entries are *dropped*, not
#: closed — closing would invalidate live numpy views into the mmap, so
#: the mapping is left to die with its last reference.
_ATTACH_CAP = 16


def attach(
    path: str | os.PathLike[str],
    *,
    limits: DecodeLimits = DEFAULT_LIMITS,
    verify: bool = False,
) -> CorpusStore:
    """Attach (or reuse this process's attachment of) a compiled store.

    Structural validation always runs; ``verify`` (payload CRCs) is off
    by default here because workers attach a store the parent already
    verified at open.  The cache is invalidated on pid change — pool
    rebuilds and resumed runs never inherit a stale descriptor — and on
    file identity change (inode / mtime / size), so recompiling a store
    at the same path never leaves a stale mapping behind.  A cached
    attachment that was made without CRC verification is re-verified
    when ``verify=True`` is requested.
    """
    key = os.path.abspath(os.fspath(path))
    pid = os.getpid()
    try:
        st = os.stat(key)
    except OSError as exc:
        # The store vanished (or its directory did): a cached mapping,
        # if any, must not be served for a file that no longer exists.
        _ATTACHED.pop(key, None)
        raise TraceFormatError(
            f"store {key!r} is not readable: {exc}"
        ) from exc
    ident = (st.st_ino, st.st_mtime_ns, st.st_size)
    hit = _ATTACHED.get(key)
    if (
        hit is not None
        and hit[0] == pid
        and hit[1] == ident
        and (hit[2] or not verify)
    ):
        # Same path identity is necessary but not sufficient: the mapped
        # inode itself may have been truncated in place since the hit
        # was cached.  guard() re-validates before the store is reused.
        try:
            hit[3].guard()
        except TraceFormatError:
            _ATTACHED.pop(key, None)
            raise
        return hit[3]
    store = CorpusStore(key, limits=limits, verify=verify)
    _ATTACHED[key] = (pid, ident, verify, store)
    while len(_ATTACHED) > _ATTACH_CAP:
        _ATTACHED.pop(next(iter(_ATTACHED)))
    return store


def detach_all() -> None:
    """Close and drop every cached attachment, and with each its
    memoized scan (tests / shutdown)."""
    for _pid, _ident, _verified, store in _ATTACHED.values():
        store.close()
    _ATTACHED.clear()
