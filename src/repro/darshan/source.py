"""Lazy trace sources: the out-of-core ingest layer of the pipeline.

The paper's corpus is 462,502 Darshan traces — far more than fits in
RAM once decoded.  A :class:`TraceSource` decouples *what the corpus
is* from *when traces are resident*: it enumerates cheap
:class:`TraceRef` handles and loads one trace at a time on demand, so
the streaming pipeline (:func:`repro.core.pipeline.run_pipeline_stream`)
can make two bounded-memory passes (scan/dedup, then categorize the
selected refs) instead of materializing a ``list[Trace]``.

The scan pass and the store compiler read a source through
:meth:`TraceSource.record_batches`: consecutive refs with their
job-header columns, file names and records, the records concatenated
into one :data:`~repro.darshan.io_binary.RECORD_DTYPE` array, bounded
in bytes, so that validation, dedup and compilation run over whole
arrays.  The default fills batches through :meth:`~TraceSource.load`;
:class:`DirectorySource` reads a batch's MOSD files into one buffer and
parses them there as one column set
(:func:`~repro.darshan.io_binary.parse_buffer`).  :func:`check_batch`
validates (and with ``repair`` repairs) a batch: the one per-batch step
of pass ① that the scan and the compiler both apply.

Three implementations cover the repo's workloads:

* :class:`DirectorySource` — a directory of MOSD/JSON/Darshan-text
  traces, discovered lazily and decoded per ref; tracks bytes read,
  offers a header-only metadata peek for MOSD files and batches MOSD
  files without building ``JobMeta`` or ``FileRecord`` objects;
* :class:`InMemorySource` — wraps an existing ``list[Trace]``; the
  compatibility path behind the batch ``run_pipeline(traces)`` API and
  the natural source for unit tests;
* :class:`SyntheticSource` — wraps :func:`repro.synth.generate_fleet`,
  deferring generation until first access so constructing the source is
  free.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Sequence,
    TypeVar,
    cast,
)

import numpy as np

from .errors import TraceFormatError, TraceWriteError
from .io_binary import (
    RECORD_DTYPE,
    MosdColumns,
    _pack_record,
    load_binary,
    loads_binary,
    parse_buffer,
    parse_payloads,
    read_into,
)
from .io_json import load_json
from .io_text import load_text
from .limits import DEFAULT_LIMITS
from .records import FileRecord, JobMeta, exact_int
from .repair import repair_trace
from .trace import Trace
from .validate import violation_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..synth.fleet import FleetConfig, FleetResult

__all__ = [
    "TraceRef",
    "RecordBatch",
    "CheckedBatch",
    "check_batch",
    "TraceSource",
    "batch_payloads",
    "DirectorySource",
    "InMemorySource",
    "SyntheticSource",
    "TRACE_SUFFIXES",
]

#: Recognized trace file suffixes, in dispatch order.
TRACE_SUFFIXES = (".mosd", ".json", ".json.gz", ".darshan.txt")

#: Files never treated as traces even with a matching suffix.
_NON_TRACE_NAMES = frozenset({"manifest.json"})

#: Default byte budget of one :meth:`TraceSource.record_batches` batch.
BATCH_BYTES = 1024 * 1024

#: Bytes the buffer of the first batch of a run of MOSD files starts
#: with; it grows as files are read into it, up to the batch budget.
#: Later batches start at the budget.  A corpus smaller than the budget
#: is then not read into a buffer of the whole budget, which costs more
#: to zero and page in than its files cost to read.
_FIRST_BUFFER = 64 * 1024

#: Bytes charged per ref on top of its records, so that batches of
#: record-less or unreadable traces stay bounded too.
_REF_BYTES = 256

_T = TypeVar("_T")


@dataclass(slots=True, frozen=True)
class TraceRef:
    """Cheap, re-loadable handle to one trace within a source.

    ``key`` is source-specific (a path for :class:`DirectorySource`, an
    index for :class:`InMemorySource`); callers treat it as opaque and
    hand the whole ref back to :meth:`TraceSource.load`.
    """

    key: Any
    #: On-disk payload size when known, 0 otherwise.
    size_bytes: int = 0


def _budgeted(items: Iterable[_T], cost: Callable[[_T], int]) -> Iterator[list[_T]]:
    """Consecutive ``items`` in groups costing at most :data:`BATCH_BYTES`,
    except that an item costing more than that is a group on its own."""
    group: list[_T] = []
    used = 0
    for item in items:
        charge = cost(item)
        if group and used + charge > BATCH_BYTES:
            yield group
            group, used = [], 0
        group.append(item)
        used += charge
    if group:
        yield group


class _Entry(NamedTuple):
    """One ref as a scan batch holds it."""

    ref: TraceRef
    #: Job header; ``None`` when the payload could not be decoded.
    meta: JobMeta | None
    #: The ref's records (empty when unreadable).
    records: np.ndarray
    #: What :meth:`RecordBatch.trace` rebuilds the trace from, if kept.
    held: Trace | None
    #: Bytes charged against the batch budget.
    cost: int
    #: The file name of each of ``records``.
    names: list[str]


_NO_RECORDS = np.empty(0, dtype=RECORD_DTYPE)

#: The header columns of an unreadable ref.
_NO_META = JobMeta(0, 0, "", 1, 0.0, 0.0, machine="", partition="")

#: Each integer field of ``RECORD_DTYPE`` and its width in bits.
_INT_COLUMNS = tuple(
    (name, RECORD_DTYPE[name].itemsize * 8)
    for name in RECORD_DTYPE.names
    if RECORD_DTYPE[name].kind == "i"
)


def _unreadable_entry(ref: TraceRef) -> _Entry:
    return _Entry(ref, None, _NO_RECORDS, None, _REF_BYTES, [])


def _record_row(rec: FileRecord) -> bytes:
    """``rec`` as one ``RECORD_DTYPE`` row, each integer field read by
    :func:`~repro.darshan.records.exact_int`."""
    try:
        return _pack_record(rec)
    except TraceWriteError:  # an integral float, or a value no column holds
        exact = {name: exact_int(getattr(rec, name), bits) for name, bits in _INT_COLUMNS}
        return _pack_record(replace(rec, **exact))


def _trace_entry(ref: TraceRef, trace: Trace, retain: bool) -> _Entry:
    """Lay a decoded trace out as ``RECORD_DTYPE`` rows.

    A trace holding a counter, id or rank count that its column cannot
    hold exactly (:func:`~repro.darshan.records.exact_int`), or a time
    that is not a number, is unreadable, as its file would be.
    """
    meta = trace.meta
    try:
        packed = b"".join([_record_row(rec) for rec in trace.records])
        job_id, uid, nprocs = map(exact_int, (meta.job_id, meta.uid, meta.nprocs))
        float(meta.start_time)
        float(meta.end_time)
        float(meta.run_time)
    except (TraceFormatError, TraceWriteError, OverflowError, TypeError, ValueError):
        return _unreadable_entry(ref)
    meta = replace(meta, job_id=job_id, uid=uid, nprocs=nprocs)
    records = np.frombuffer(packed, dtype=RECORD_DTYPE)
    held = trace if retain else None
    names = [rec.file_name for rec in trace.records]
    return _Entry(ref, meta, records, held, _REF_BYTES + records.nbytes, names)


@dataclass(slots=True)
class RecordBatch:
    """Consecutive refs of a source, their headers and records as columns.

    Per-ref columns are aligned with :attr:`keys`; ref ``i`` owns the
    next ``counts[i]`` rows of :attr:`records`, named by
    :meth:`file_names`.  An unreadable ref has ``unreadable[i]`` set, no
    records, job id and uid 0, start and end time 0 and empty strings.
    Every readable ref's values are held exactly: one that a column
    cannot hold makes its ref unreadable.
    """

    #: Each ref's :attr:`TraceRef.key` and :attr:`TraceRef.size_bytes`;
    #: :meth:`ref` builds the ref itself.
    keys: list[Any]
    sizes: list[int]
    unreadable: np.ndarray
    job_id: list[int]
    uid: list[int]
    exe: list[str]
    nprocs: np.ndarray
    run_time: np.ndarray
    start_time: np.ndarray
    end_time: np.ndarray
    machine: Sequence[str]
    partition: Sequence[str]
    counts: np.ndarray
    #: Every readable ref's records, back to back (``RECORD_DTYPE``).
    records: np.ndarray
    _held: list[Trace | None] = field(default_factory=list)
    #: Job headers, or the parsed MOSD columns to build them from.
    _headers: list[JobMeta | None] | MosdColumns = field(default_factory=list)
    #: Each ref's file names, or its MOSD string table to split.
    _names: Sequence[list[str] | str] = field(default_factory=list)

    @classmethod
    def of(cls, entries: Sequence[_Entry]) -> "RecordBatch":
        """Assemble a batch from one or more decoded entries, in order."""
        refs, metas, records, held, _, names = zip(*entries)
        header = [_NO_META if m is None else m for m in metas]
        return cls(
            keys=[ref.key for ref in refs],
            sizes=[ref.size_bytes for ref in refs],
            unreadable=np.array([m is None for m in metas], dtype=bool),
            job_id=[m.job_id for m in header],
            uid=[m.uid for m in header],
            exe=[m.exe for m in header],
            nprocs=np.array([m.nprocs for m in header], dtype=np.int64),
            run_time=np.array([1.0 if m is None else m.run_time for m in metas], float),
            start_time=np.array([m.start_time for m in header], dtype=np.float64),
            end_time=np.array([m.end_time for m in header], dtype=np.float64),
            machine=[m.machine for m in header],
            partition=[m.partition for m in header],
            counts=np.array([len(r) for r in records], dtype=np.int64),
            # joining the raw sections skips concatenate's per-array
            # structured-dtype promotion
            records=np.frombuffer(
                b"".join([r.data for r in records]), dtype=RECORD_DTYPE
            ),
            _held=list(held),
            _headers=list(metas),
            _names=list(names),
        )

    @classmethod
    def of_columns(
        cls, keys: list[Any], sizes: list[int], cols: MosdColumns
    ) -> "RecordBatch":
        """One ref per row of parsed MOSD columns.  The batch keeps the
        buffer they were parsed from, so :meth:`trace` can rebuild any
        readable ref without reading it again."""
        return cls(
            keys=keys,
            sizes=sizes,
            unreadable=~cols.ok,
            job_id=cols.job_id.tolist(),
            uid=cols.uid.tolist(),
            exe=cols.exe,
            nprocs=np.where(cols.ok, cols.nprocs, 1),
            run_time=np.where(cols.ok, cols.end - cols.start, 1.0),
            start_time=cols.start,
            end_time=cols.end,
            machine=cols.machine,
            partition=cols.partition,
            counts=cols.counts,
            records=cols.records,
            _headers=cols,
            _names=cols.tables,
        )

    @property
    def refs(self) -> list[TraceRef]:
        """Every ref of the batch, in order."""
        return [TraceRef(key, size) for key, size in zip(self.keys, self.sizes)]

    def ref(self, i: int) -> TraceRef:
        """Ref ``i`` of the batch."""
        return TraceRef(self.keys[i], self.sizes[i])

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def metas(self) -> list[JobMeta | None]:
        """Each ref's job header (``None`` when unreadable); a parsed
        batch builds them on each read."""
        cols = self._headers
        if isinstance(cols, list):
            return cols
        rows = zip(
            cols.ok.tolist(),
            cols.job_id.tolist(),
            cols.uid.tolist(),
            cols.exe,
            cols.nprocs.tolist(),
            cols.start.tolist(),
            cols.end.tolist(),
            cols.machine,
            cols.partition,
        )
        return [JobMeta(*row[1:]) if row[0] else None for row in rows]

    def file_names(self, i: int) -> list[str]:
        """The file name of each of ref ``i``'s records in the batch."""
        names = self._names[i]
        if isinstance(names, str):  # a MOSD string table
            return names.split("\x00") if names else [""] * int(self.counts[i])
        return names

    def trace(self, i: int) -> Trace:
        """Rebuild ref ``i`` as a ``Trace`` from what the batch kept."""
        cols = self._headers
        if isinstance(cols, MosdColumns):
            return loads_binary(cols.payload(i))
        held = self._held[i]
        if held is None:
            raise ValueError(f"batch kept no trace for ref {i}")
        return held


def segment_sums(
    records: np.ndarray, counts: np.ndarray, fields: Sequence[str]
) -> list[int]:
    """Each trace's exact sum of ``fields`` over its records.

    Trace ``t`` owns the next ``counts[t]`` of ``records``.  The sums
    run in int64 when no trace's sum can reach 2**63 in magnitude (the
    running sum may wrap; each trace's difference is still exact), in
    Python ints otherwise.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    largest = sum(
        max(int(records[f].max(initial=0)), -int(records[f].min(initial=0)))
        for f in fields
    )
    if largest * int(counts.max(initial=0)) < 2**63:
        per_record = np.zeros(len(records), dtype=np.int64)
        for f in fields:
            per_record += records[f]
        cum = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(per_record, out=cum[1:])
        return (cum[ends] - cum[starts]).tolist()
    columns = [records[f].tolist() for f in fields]
    return [
        sum(sum(column[s:e]) for column in columns)
        for s, e in zip(starts.tolist(), ends.tolist())
    ]


def batch_payloads(payloads: Sequence[bytes]) -> RecordBatch:
    """MOSD payloads already in hand, laid out as one scan batch.

    The same columnar parse :class:`DirectorySource` runs over the files
    of a batch; refs are the payloads' positions.
    """
    cols = parse_payloads(payloads)
    return RecordBatch.of_columns(list(range(len(payloads))), cols.sizes.tolist(), cols)


def _flags(batch: RecordBatch) -> np.ndarray:
    return violation_matrix(batch.records, batch.run_time, batch.nprocs, batch.counts)


@dataclass(slots=True)
class CheckedBatch:
    """One record batch as pass ① reads it: validated and, with
    ``repair``, with the refs repair recovered laid out again."""

    batch: RecordBatch
    #: :func:`~repro.darshan.validate.violation_matrix` of :attr:`batch`.
    flags: np.ndarray
    #: Positions in :attr:`batch` of the refs repair recovered, ascending.
    repaired: list[int] = field(default_factory=list)
    #: Those refs' repaired traces, in the same order, as one more
    #: checked batch; ``None`` when nothing was repaired.
    fixed: "CheckedBatch | None" = None


def check_batch(batch: RecordBatch, *, repair: bool = False) -> CheckedBatch:
    """Pass ①'s one per-batch step, which the streaming scan and the
    store compiler apply to each batch of
    ``source.record_batches(retain_traces=repair)``: ``batch`` with its
    violation matrix.  With ``repair``, each readable ref it flags is
    rebuilt from what the batch kept and repaired
    (:func:`~repro.darshan.repair.repair_trace`); the traces recovered
    are laid out through the same rows as any decoded trace, as one
    more batch validated by one more matrix.
    """
    checked = CheckedBatch(batch, _flags(batch))
    if repair:
        entries = []
        for i in np.flatnonzero(checked.flags.any(axis=1) & ~batch.unreadable).tolist():
            outcome = repair_trace(batch.trace(i))
            if outcome.repaired:
                checked.repaired.append(i)
                entries.append(_trace_entry(batch.ref(i), outcome.trace, False))
        if entries:
            fixed = RecordBatch.of(entries)
            checked.fixed = CheckedBatch(fixed, _flags(fixed))
    return checked


class TraceSource(ABC):
    """Lazy corpus: enumerate refs cheaply, load traces one at a time.

    Implementations must make :meth:`refs` re-iterable (the streaming
    pipeline enumerates twice: scan pass and categorize pass) and
    deterministic, so that a ref selected in pass 1 resolves to the same
    trace in pass 2.
    """

    @abstractmethod
    def refs(self) -> Iterator[TraceRef]:
        """Enumerate the corpus without decoding any trace."""

    @abstractmethod
    def load(self, ref: TraceRef) -> Trace:
        """Decode one trace.  Raises
        :class:`~repro.darshan.errors.TraceFormatError` when the payload
        is unreadable — streaming scans count that as corruption."""

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Trace]:
        for ref in self.refs():
            yield self.load(ref)

    def count(self) -> int:
        """Number of refs (enumerates; O(corpus) but loads nothing)."""
        return sum(1 for _ in self.refs())

    def record_batches(self, *, retain_traces: bool = False) -> Iterator[RecordBatch]:
        """Every ref in :meth:`refs` order, grouped into record batches.

        A batch holds at most :data:`BATCH_BYTES` of payload (record
        bytes plus a fixed charge per ref), except that a trace larger
        than that forms a batch on its own.  With
        ``retain_traces`` each batch can rebuild any readable ref's
        ``Trace`` (:meth:`RecordBatch.trace`) without reading it again.
        Decode failures mark the ref unreadable; any other error
        propagates.
        """
        entries = (self._batch_entry(ref, retain_traces) for ref in self.refs())
        for group in _budgeted(entries, lambda e: e.cost):
            yield RecordBatch.of(group)

    def _batch_entry(self, ref: TraceRef, retain: bool) -> _Entry:
        """One ref for :meth:`record_batches`; the default loads it."""
        try:
            trace = self.load(ref)
        except TraceFormatError:
            return _unreadable_entry(ref)
        return _trace_entry(ref, trace, retain)

    @property
    def bytes_read(self) -> int:
        """Cumulative payload bytes decoded so far (0 when untracked)."""
        return 0


class _MosdBatch:
    """One batch of MOSD files as :meth:`DirectorySource.record_batches`
    reads them: their bytes back to back in one buffer."""

    __slots__ = ("view", "used", "charged", "rows")

    def __init__(self, capacity: int):
        # the one byte more a read asks for sees whether a file goes on
        self.view = memoryview(bytearray(capacity + 1))
        self.used = 0
        self.charged = 0
        #: Each file's path, ref size and length read, in buffer order.
        self.rows: list[tuple[str, int, int]] = []

    def split(self, at: int, n: int, size: int) -> "_MosdBatch":
        """A new batch holding the ``n`` bytes read at ``at`` of a file
        of ``size`` bytes, which is not added here, in a buffer the size
        of the budget or of the file, whichever is larger."""
        batch = _MosdBatch(max(BATCH_BYTES, size))
        batch.view[:n] = self.view[at : at + n]
        return batch

    def parse(self) -> tuple[list[str], list[int], MosdColumns]:
        """The batch's paths, ref sizes and parsed columns."""
        buf = cast(bytearray, self.view.obj)
        self.view.release()
        del buf[self.used :]
        keys, sizes, lengths = zip(*self.rows)
        counts = np.array(lengths)
        offsets = np.cumsum(counts) - counts
        return list(keys), list(sizes), parse_buffer(buf, offsets, counts)


class DirectorySource(TraceSource):
    """All trace files under one directory, decoded lazily per ref.

    Files are discovered in sorted name order (deterministic across the
    two pipeline passes) and dispatched on suffix: ``.mosd`` binary,
    ``.json``/``.json.gz`` JSON, ``.darshan.txt`` text.  The directory
    listing is re-read on every :meth:`refs` call, so a source can
    outlive corpus growth; loads are counted in :attr:`bytes_read`.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self._bytes_read = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DirectorySource({self.path!r})"

    def _listing(self) -> list[os.DirEntry[str]]:
        """The directory's trace files, in name order."""
        try:
            with os.scandir(self.path) as it:
                entries = [
                    e
                    for e in it
                    if e.name.endswith(TRACE_SUFFIXES)
                    and e.name not in _NON_TRACE_NAMES
                    and e.is_file()
                ]
        except OSError as exc:
            raise TraceFormatError(
                f"cannot list trace directory {self.path!r}: {exc}"
            ) from exc
        entries.sort(key=attrgetter("name"))
        return entries

    @staticmethod
    def _ref(entry: os.DirEntry[str]) -> TraceRef:
        try:
            size = entry.stat().st_size
        except OSError:  # gone since the listing: its load fails instead
            size = 0
        return TraceRef(key=entry.path, size_bytes=size)

    def refs(self) -> Iterator[TraceRef]:
        for entry in self._listing():
            yield self._ref(entry)

    def load(self, ref: TraceRef) -> Trace:
        path = str(ref.key)
        if path.endswith(".mosd"):
            trace = load_binary(path)
        elif path.endswith((".json", ".json.gz")):
            trace = load_json(path)
        elif path.endswith(".darshan.txt"):
            trace = load_text(path)
        else:
            raise TraceFormatError(f"unrecognized trace suffix: {path!r}")
        self._bytes_read += ref.size_bytes
        return trace

    def count(self) -> int:
        """Number of trace files, from the listing alone (no stat)."""
        return len(self._listing())

    def record_batches(self, *, retain_traces: bool = False) -> Iterator[RecordBatch]:
        """The default batching, but each batch's MOSD files are read
        into one buffer and parsed there as one column set
        (:func:`~repro.darshan.io_binary.parse_buffer`).

        A batch holds MOSD files only or other formats only, which go
        through :meth:`load`.  A MOSD batch can always rebuild its
        traces, whatever ``retain_traces`` says: it keeps its buffer.
        """
        runs = groupby(self._listing(), key=lambda e: e.name.endswith(".mosd"))
        for is_mosd, dir_entries in runs:
            if is_mosd:
                yield from self._mosd_batches(dir_entries)
                continue
            entries = (
                self._batch_entry(self._ref(e), retain_traces) for e in dir_entries
            )
            for group in _budgeted(entries, lambda e: e.cost):
                yield RecordBatch.of(group)

    def _mosd_batches(self, entries: Iterable[os.DirEntry[str]]) -> Iterator[RecordBatch]:
        """MOSD files in batches, each batch read into one buffer.

        Per file: open, read at the buffer's next offset to end of file
        or to one byte past the batch budget left
        (:func:`~repro.darshan.io_binary.read_into`), close.  Only a
        file longer than the budget left is measured (``fstat``): one
        over the decode limit is refused without reading on, any other
        starts a new batch, in a buffer the size of the budget or of the
        file, whichever is larger.  A file that ends within the budget
        left joins the batch if its charge, at least the per-ref charge,
        fits.  A file that cannot be opened or read, or is over the
        decode limit, holds no bytes, which the parser refuses.  A ref's
        ``size_bytes`` is the number of bytes read, or else the file's
        measured size (its ``stat`` size when it could not be opened or
        read).
        """
        cap = DEFAULT_LIMITS.max_payload_bytes
        readv = os.readv
        batch = _MosdBatch(_FIRST_BUFFER)
        for entry in entries:
            at, size, n = batch.used, 0, 0
            full: _MosdBatch | None = None
            try:
                fd = os.open(entry.path, os.O_RDONLY)
            except OSError:  # gone since the listing, or not ours to read
                fd, size = -1, self._ref(entry).size_bytes
            if fd >= 0:
                try:
                    left = max(BATCH_BYTES - batch.charged, 0)
                    view = batch.view
                    end = at + left + 1
                    if end > len(view):  # the batch's first buffer, still growing
                        batch.view, n = read_into(fd, view, at, -1, left)
                    else:
                        # read_into's first read and end-of-file probe,
                        # inline: a call per file costs ~5% of a scan pass
                        n = readv(fd, [view[at:end]])
                        if at + n < end:
                            more = readv(fd, [view[at + n : end]])
                            if more:
                                batch.view, n = read_into(fd, view, at, -1, left, n + more)
                    if n > left:  # longer than the budget left: measured before reading on
                        size = os.fstat(fd).st_size
                        if size > cap:
                            n = 0
                        else:
                            full = batch if batch.rows else None
                            batch, at = batch.split(at, n, size), 0
                            batch.view, n = read_into(fd, batch.view, at, size, cap, n)
                except OSError:
                    n, size = 0, self._ref(entry).size_bytes
                finally:
                    os.close(fd)
                if n > cap:
                    n, size = 0, n
            charge = n if n > _REF_BYTES else _REF_BYTES
            if full is None and batch.rows and batch.charged + charge > BATCH_BYTES:
                full, batch = batch, batch.split(at, n, n)
            batch.rows.append((entry.path, n or size, n))
            batch.used += n
            batch.charged += charge
            if full is not None:
                yield self._parsed(full)
        if batch.rows:
            yield self._parsed(batch)

    def _parsed(self, batch: _MosdBatch) -> RecordBatch:
        keys, sizes, cols = batch.parse()
        self._bytes_read += int(cols.sizes[cols.ok].sum())
        return RecordBatch.of_columns(keys, sizes, cols)

    @property
    def bytes_read(self) -> int:
        return self._bytes_read


class InMemorySource(TraceSource):
    """A ``list[Trace]`` presented through the source API.

    Backs the batch-compatibility path: ``run_pipeline(traces)`` wraps
    its input in this source, so the whole pipeline has a single
    streaming implementation.  Loads are free (list indexing); refs are
    positions, keeping duplicate traces distinct.
    """

    def __init__(self, traces: Sequence[Trace]):
        self._traces = traces

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InMemorySource(n={len(self._traces)})"

    def refs(self) -> Iterator[TraceRef]:
        for i in range(len(self._traces)):
            yield TraceRef(key=i)

    def load(self, ref: TraceRef) -> Trace:
        return self._traces[ref.key]

    def count(self) -> int:
        return len(self._traces)


class SyntheticSource(TraceSource):
    """Lazy wrapper around :func:`repro.synth.generate_fleet`.

    Generation is deferred until the first ref/load and cached, so the
    source can be constructed (and passed around, put in configs, ...)
    for free.  :attr:`fleet` exposes the underlying
    :class:`~repro.synth.fleet.FleetResult` for ground-truth consumers
    such as accuracy estimation.
    """

    def __init__(self, config: "FleetConfig | None" = None):
        self._config = config
        self._fleet: "FleetResult | None" = None
        self._inner: InMemorySource | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "generated" if self._fleet is not None else "pending"
        return f"SyntheticSource({state})"

    @property
    def fleet(self) -> "FleetResult":
        if self._fleet is None:
            from ..synth.fleet import generate_fleet

            self._fleet = generate_fleet(self._config)
            self._inner = InMemorySource(self._fleet.traces)
        return self._fleet

    def refs(self) -> Iterator[TraceRef]:
        self.fleet
        assert self._inner is not None
        return self._inner.refs()

    def load(self, ref: TraceRef) -> Trace:
        self.fleet
        assert self._inner is not None
        return self._inner.load(ref)

    def count(self) -> int:
        return len(self.fleet.traces)
