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
:class:`DirectorySource` reads a batch's MOSD files back to back and
parses them as one column set
(:func:`~repro.darshan.io_binary.parse_payloads`).

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
from dataclasses import dataclass, field
from itertools import groupby
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Sequence,
    TypeVar,
)

import numpy as np

from .errors import TraceFormatError, TraceWriteError
from .io_binary import (
    RECORD_DTYPE,
    MosdColumns,
    _pack_record,
    load_binary,
    load_binary_meta,
    loads_binary,
    parse_payloads,
    read_payload,
)
from .io_json import load_json
from .io_text import load_text
from .records import JobMeta
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..synth.fleet import FleetConfig, FleetResult

__all__ = [
    "TraceRef",
    "RecordBatch",
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
    #: The ref's records (empty when unreadable or ``scalar``).
    records: np.ndarray
    #: What :meth:`RecordBatch.trace` rebuilds the trace from, if kept.
    held: Trace | bytes | None
    #: Bytes charged against the batch budget.
    cost: int
    #: True when the trace's values do not fit ``RECORD_DTYPE`` or the
    #: header columns (an integer beyond int64, a fractional counter);
    #: ``held`` is then the trace itself.
    scalar: bool
    #: The file name of each of ``records``.
    names: list[str]


_NO_RECORDS = np.empty(0, dtype=RECORD_DTYPE)


def _unreadable_entry(ref: TraceRef) -> _Entry:
    return _Entry(ref, None, _NO_RECORDS, None, _REF_BYTES, False, [])


def _trace_entry(ref: TraceRef, trace: Trace, retain: bool) -> _Entry:
    """Lay a decoded trace out as ``RECORD_DTYPE`` rows."""
    meta = trace.meta
    try:
        # packing through the MOSD struct refuses what the layout cannot
        # hold exactly, where a NumPy cast would truncate a float counter
        packed = b"".join([_pack_record(rec) for rec in trace.records])
        np.array([meta.job_id, meta.uid, meta.nprocs], dtype=np.int64)
        float(meta.start_time)
        float(meta.end_time)
        float(meta.run_time)
    except (TraceWriteError, OverflowError, TypeError, ValueError):
        return _Entry(ref, meta, _NO_RECORDS, trace, _REF_BYTES, True, [])
    records = np.frombuffer(packed, dtype=RECORD_DTYPE)
    held = trace if retain else None
    names = [rec.file_name for rec in trace.records]
    return _Entry(ref, meta, records, held, _REF_BYTES + records.nbytes, False, names)


@dataclass(slots=True)
class RecordBatch:
    """Consecutive refs of a source, their headers and records as columns.

    Per-ref columns are aligned with :attr:`refs`; ref ``i`` owns the
    next ``counts[i]`` rows of :attr:`records`, named by
    :meth:`file_names`.  An unreadable ref has ``unreadable[i]`` set, no
    records, job id and uid 0, start and end time 0 and empty strings.
    """

    refs: list[TraceRef]
    unreadable: np.ndarray
    job_id: list[int]
    uid: list[int]
    exe: list[str]
    nprocs: np.ndarray
    run_time: np.ndarray
    start_time: np.ndarray
    end_time: np.ndarray
    machine: list[str]
    partition: list[str]
    counts: np.ndarray
    #: Every readable ref's records, back to back (``RECORD_DTYPE``).
    records: np.ndarray
    #: Positions of refs whose values do not fit ``RECORD_DTYPE`` or the
    #: header columns: they carry no records and no header columns
    #: beyond job id, uid and exe here, and must be handled as traces.
    scalar: frozenset[int] = frozenset()
    _held: list[Trace | bytes | None] = field(default_factory=list)
    #: Job headers, or the parsed MOSD columns to build them from.
    _headers: list[JobMeta | None] | MosdColumns = field(default_factory=list)
    #: Each ref's file names, or its MOSD string table to split.
    _names: Sequence[list[str] | str] = field(default_factory=list)

    @classmethod
    def of(cls, entries: Sequence[_Entry]) -> "RecordBatch":
        """Assemble a batch from one or more decoded entries, in order."""
        refs, metas, records, held, _, scalar, names = zip(*entries)
        n = len(entries)
        nprocs = [1] * n
        run_time = [1.0] * n
        start_time = [0.0] * n
        end_time = [0.0] * n
        job_id = [0] * n
        uid = [0] * n
        exe = [""] * n
        machine = [""] * n
        partition = [""] * n
        for i, meta in enumerate(metas):
            if meta is None:
                continue
            job_id[i], uid[i], exe[i] = meta.job_id, meta.uid, meta.exe
            if not scalar[i]:
                nprocs[i] = meta.nprocs
                run_time[i] = meta.end_time - meta.start_time
                start_time[i], end_time[i] = meta.start_time, meta.end_time
                machine[i], partition[i] = meta.machine, meta.partition
        return cls(
            refs=list(refs),
            unreadable=np.array([m is None for m in metas], dtype=bool),
            job_id=job_id,
            uid=uid,
            exe=exe,
            nprocs=np.array(nprocs, dtype=np.int64),
            run_time=np.array(run_time, dtype=np.float64),
            start_time=np.array(start_time, dtype=np.float64),
            end_time=np.array(end_time, dtype=np.float64),
            machine=machine,
            partition=partition,
            counts=np.array([len(r) for r in records], dtype=np.int64),
            # joining the raw sections skips concatenate's per-array
            # structured-dtype promotion
            records=np.frombuffer(
                b"".join([r.data for r in records]), dtype=RECORD_DTYPE
            ),
            scalar=frozenset(i for i, s in enumerate(scalar) if s),
            _held=list(held),
            _headers=list(metas),
            _names=list(names),
        )

    @classmethod
    def of_payloads(
        cls, refs: list[TraceRef], payloads: Sequence[bytes], retain: bool
    ) -> "RecordBatch":
        """One MOSD payload per ref, parsed as one column set
        (:func:`~repro.darshan.io_binary.parse_payloads`).  ``retain``
        keeps the payloads for :meth:`trace`."""
        cols = parse_payloads(payloads)
        return cls(
            refs=refs,
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
            _held=list(payloads) if retain else [None] * len(refs),
            _headers=cols,
            _names=cols.tables,
        )

    def __len__(self) -> int:
        return len(self.refs)

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

    def app_key(self, i: int) -> tuple[int, str]:
        """Ref ``i``'s :attr:`JobMeta.app_key
        <repro.darshan.records.JobMeta.app_key>`, read from the columns."""
        return (self.uid[i], self.exe[i])

    def trace(self, i: int) -> Trace:
        """Rebuild ref ``i`` as a ``Trace`` from what the batch kept."""
        held = self._held[i]
        if isinstance(held, Trace):
            return held
        if isinstance(held, bytes):
            return loads_binary(held)
        raise ValueError(f"batch kept no payload for ref {i}")


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
    refs = [TraceRef(key=i) for i in range(len(payloads))]
    return RecordBatch.of_payloads(refs, payloads, True)


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

    def peek_meta(self, ref: TraceRef) -> JobMeta:
        """Job header of one trace, as cheaply as the format allows.

        The default decodes the full trace; formats with a separable
        header (MOSD) override this with a header-only read.
        """
        return self.load(ref).meta

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

    @staticmethod
    def _is_trace_name(name: str) -> bool:
        if name in _NON_TRACE_NAMES:
            return False
        return name.endswith(TRACE_SUFFIXES)

    def _listing(self) -> list[os.DirEntry[str]]:
        """The directory's trace files, in name order."""
        try:
            with os.scandir(self.path) as it:
                entries = [
                    e for e in it if e.is_file() and self._is_trace_name(e.name)
                ]
        except OSError as exc:
            raise TraceFormatError(
                f"cannot list trace directory {self.path!r}: {exc}"
            ) from exc
        entries.sort(key=lambda e: e.name)
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

    def peek_meta(self, ref: TraceRef) -> JobMeta:
        path = str(ref.key)
        if path.endswith(".mosd"):
            return load_binary_meta(path)
        return super().peek_meta(ref)

    def record_batches(self, *, retain_traces: bool = False) -> Iterator[RecordBatch]:
        """The default batching, but each batch's MOSD files are read
        back to back and parsed as one column set
        (:func:`~repro.darshan.io_binary.parse_payloads`).

        A batch holds MOSD files only or other formats only, which go
        through :meth:`load`.  A MOSD ref's ``size_bytes`` is the length
        of the file it read, so the scan stats no readable entry
        separately; the file is charged its payload bytes, and at least
        the per-ref charge, against the batch budget.
        """
        runs = groupby(self._listing(), key=lambda e: e.name.endswith(".mosd"))
        for is_mosd, dir_entries in runs:
            if not is_mosd:
                entries = (
                    self._batch_entry(self._ref(e), retain_traces) for e in dir_entries
                )
                for group in _budgeted(entries, lambda e: e.cost):
                    yield RecordBatch.of(group)
                continue
            files = map(self._read, dir_entries)
            for group in _budgeted(files, lambda f: max(len(f[1]), _REF_BYTES)):
                refs, payloads = zip(*group)
                batch = RecordBatch.of_payloads(list(refs), payloads, retain_traces)
                self._bytes_read += sum(
                    len(payload)
                    for payload, bad in zip(payloads, batch.unreadable.tolist())
                    if not bad
                )
                yield batch

    def _read(self, entry: os.DirEntry[str]) -> tuple[TraceRef, bytes]:
        """A MOSD file's ref and bytes; an unreadable file reads as no
        bytes, which the parser refuses."""
        try:
            payload = read_payload(entry.path)
        except TraceFormatError:
            return self._ref(entry), b""
        return TraceRef(key=entry.path, size_bytes=len(payload)), payload

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
