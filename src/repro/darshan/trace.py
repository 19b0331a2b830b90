"""The ``Trace`` container and its NumPy views.

This is the hand-off point between the Darshan substrate and the MOSAIC
algorithms: :meth:`Trace.operations` flattens the per-file records into a
vectorized *operation array* (start, end, bytes) per direction, and
:meth:`Trace.metadata_columns` gives each record's metadata window and
request counters, which the metadata categorizer turns into a
per-second rate in closed form
(:func:`repro.kernels.batched.bin_events_segmented`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal

import numpy as np

from .records import FileRecord, JobMeta

__all__ = [
    "Direction",
    "OperationArray",
    "Trace",
    "metadata_windows",
    "record_metadata_events",
    "record_operations",
]

Direction = Literal["read", "write"]

#: Minimum duration assigned to an instantaneous operation window.  Darshan
#: rounds timestamps; a record whose first and last access coincide still
#: represents real I/O and must survive interval algebra.
MIN_OP_DURATION = 1e-6


@dataclass(slots=True)
class OperationArray:
    """Columnar view of I/O operations of one direction.

    Attributes
    ----------
    starts, ends:
        Operation windows in seconds relative to job start.  Always kept
        sorted by ``starts``; ``ends >= starts`` element-wise.
    volumes:
        Bytes moved by each operation (float64 to survive merging math).
    """

    starts: np.ndarray
    ends: np.ndarray
    volumes: np.ndarray

    def __post_init__(self) -> None:
        self.starts = np.asarray(self.starts, dtype=np.float64)
        self.ends = np.asarray(self.ends, dtype=np.float64)
        self.volumes = np.asarray(self.volumes, dtype=np.float64)
        if not (len(self.starts) == len(self.ends) == len(self.volumes)):
            raise ValueError("starts/ends/volumes must have equal length")
        order = np.argsort(self.starts, kind="stable")
        self.starts = self.starts[order]
        self.ends = self.ends[order]
        self.volumes = self.volumes[order]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[tuple[float, float, float]]:
        for s, e, v in zip(self.starts, self.ends, self.volumes):
            yield (float(s), float(e), float(v))

    @property
    def total_volume(self) -> float:
        """Total bytes moved across all operations."""
        return float(self.volumes.sum()) if len(self) else 0.0

    @property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    @property
    def busy_time(self) -> float:
        """Sum of operation durations (overlaps counted multiply; merge
        first for wall-clock busy time)."""
        return float(self.durations.sum()) if len(self) else 0.0

    def is_empty(self) -> bool:
        return len(self) == 0

    @classmethod
    def empty(cls) -> "OperationArray":
        z = np.empty(0, dtype=np.float64)
        return cls(z.copy(), z.copy(), z.copy())

    @classmethod
    def from_tuples(
        cls, ops: Iterable[tuple[float, float, float]]
    ) -> "OperationArray":
        rows = list(ops)
        if not rows:
            return cls.empty()
        arr = np.asarray(rows, dtype=np.float64)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])


def metadata_windows(
    open_start: np.ndarray, close_end: np.ndarray, read_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each record's metadata attribution window ``(t0, t1)``.

    Attribution model (documented substitution for the missing DXT
    data, following §III-B3c): the window runs from the first open to
    the last close.  A missing open (the ``-1`` sentinel) falls back to
    the first read, clamped to job start; a missing close collapses the
    window onto ``t0``; an inverted window is swapped.  OPEN and SEEK
    requests are co-located; a record with ``n > 1`` opens spreads its
    requests uniformly over the window, which is how a repeatedly
    reopened file actually loads the metadata server.
    """
    t0 = np.where(open_start >= 0, open_start, np.maximum(read_start, 0.0))
    t1 = np.where(close_end >= 0, close_end, t0)
    # `if t1 < t0: swap`, element-wise (NaN comparisons stay put)
    swap = t1 < t0
    return np.where(swap, t1, t0), np.where(swap, t0, t1)


#: Record fields of one operation direction: start, end, bytes.
_DIRECTIONS = (
    ("read_start", "read_end", "bytes_read"),
    ("write_start", "write_end", "bytes_written"),
)


def record_operations(
    records: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`Trace.operations` of many traces, from their record columns.

    Trace ``t`` owns the next ``counts[t]`` of ``records``.  Returns
    ``(starts, ends, volumes, n_read, n_write)``: one operation per
    record with bytes and a start, ending at Python's ``max(end, start +
    MIN_OP_DURATION)``; each trace's reads, then its writes, stably
    sorted by start; ``n_read[t]`` and ``n_write[t]`` operations each.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    starts, ends, volumes, groups, per_trace = [], [], [], [], []
    for direction, (start_f, end_f, bytes_f) in enumerate(_DIRECTIONS):
        take = np.flatnonzero((records[bytes_f] > 0) & (records[start_f] >= 0.0))
        start = records[start_f][take]
        end = records[end_f][take]
        floor = start + MIN_OP_DURATION
        starts.append(start)
        ends.append(np.where(floor > end, floor, end))
        volumes.append(records[bytes_f][take].astype(np.float64))
        groups.append(owner[take] * 2 + direction)
        per_trace.append(np.bincount(owner[take], minlength=len(counts)))
    by_start = np.argsort(np.concatenate(starts), kind="stable")
    order = by_start[np.argsort(np.concatenate(groups)[by_start], kind="stable")]
    n_read, n_write = per_trace
    return (
        np.concatenate(starts)[order],
        np.concatenate(ends)[order],
        np.concatenate(volumes)[order],
        n_read,
        n_write,
    )


def record_metadata_events(
    records: np.ndarray, first: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, ...]:
    """:meth:`Trace.metadata_columns` of many traces, from their record
    columns, plus offsets.

    Trace ``j`` owns ``records[first[j] : first[j] + counts[j]]``.
    Returns ``(t0, t1, opens, n_open, n_close, offsets)``, trace ``j``'s
    rows being ``offsets[j]:offsets[j+1]``.
    """
    first = np.asarray(first, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    take = np.arange(int(offsets[-1]), dtype=np.int64)
    take += np.repeat(first - offsets[:-1], counts)

    def column(name: str, dtype: type) -> np.ndarray:
        return records[name][take].astype(dtype)

    opens = column("opens", np.int64)
    t0, t1 = metadata_windows(
        column("open_start", np.float64),
        column("close_end", np.float64),
        column("read_start", np.float64),
    )
    return (
        t0,
        t1,
        opens,
        opens + column("seeks", np.int64),
        column("closes", np.int64),
        offsets,
    )


@dataclass(slots=True)
class Trace:
    """One Darshan-equivalent execution trace: job header + file records."""

    meta: JobMeta
    records: list[FileRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_bytes_read(self) -> int:
        return sum(r.bytes_read for r in self.records)

    @property
    def total_bytes_written(self) -> int:
        return sum(r.bytes_written for r in self.records)

    @property
    def total_bytes(self) -> int:
        return self.total_bytes_read + self.total_bytes_written

    @property
    def total_metadata_ops(self) -> int:
        return sum(r.metadata_ops for r in self.records)

    def io_weight(self) -> float:
        """Heaviness of the trace used by dedup's keep-heaviest rule
        (§III-B1: "MOSAIC only analyzes the heaviest, i.e. the most
        I/O-intensive, trace")."""
        return float(self.total_bytes) + float(self.total_metadata_ops)

    # ------------------------------------------------------------------
    def operations(self, direction: Direction) -> OperationArray:
        """Flatten records into the raw (unmerged) operation array.

        Each record with activity in ``direction`` contributes one
        operation spanning its first→last access timestamp with the
        record's full byte count — exactly the granularity Blue Waters
        Darshan provides (accesses aggregated between open and close).
        """
        starts: list[float] = []
        ends: list[float] = []
        vols: list[float] = []
        if direction == "read":
            for r in self.records:
                if r.has_read:
                    starts.append(r.read_start)
                    ends.append(max(r.read_end, r.read_start + MIN_OP_DURATION))
                    vols.append(float(r.bytes_read))
        elif direction == "write":
            for r in self.records:
                if r.has_write:
                    starts.append(r.write_start)
                    ends.append(max(r.write_end, r.write_start + MIN_OP_DURATION))
                    vols.append(float(r.bytes_written))
        else:  # pragma: no cover - Literal guards this
            raise ValueError(f"unknown direction: {direction!r}")
        if not starts:
            return OperationArray.empty()
        return OperationArray(
            np.asarray(starts), np.asarray(ends), np.asarray(vols)
        )

    def metadata_columns(self) -> tuple[np.ndarray, ...]:
        """Per-record metadata columns ``(t0, t1, opens, n_open, n_close)``.

        ``[t0, t1]`` is the record's metadata window
        (:func:`metadata_windows`), ``n_open`` its OPEN+SEEK and
        ``n_close`` its CLOSE requests: the inputs of
        :func:`repro.kernels.batched.bin_events_segmented`.
        """
        recs = self.records
        n = len(recs)

        def column(values: Iterable[float], dtype: type) -> np.ndarray:
            return np.fromiter(values, dtype=dtype, count=n)

        opens = column((r.opens for r in recs), np.int64)
        t0, t1 = metadata_windows(
            column((r.open_start for r in recs), np.float64),
            column((r.close_end for r in recs), np.float64),
            column((r.read_start for r in recs), np.float64),
        )
        return (
            t0,
            t1,
            opens,
            opens + column((r.seeks for r in recs), np.int64),
            column((r.closes for r in recs), np.int64),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "job": self.meta.to_dict(),
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        return cls(
            meta=JobMeta.from_dict(d["job"]),
            records=[FileRecord.from_dict(r) for r in d.get("records", [])],
        )
