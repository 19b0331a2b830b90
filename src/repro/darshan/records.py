"""Record-level data model for Darshan-equivalent traces.

A trace is a :class:`~repro.darshan.trace.Trace`: one
:class:`JobMeta` plus a list of :class:`FileRecord`.  A ``FileRecord``
mirrors what the Darshan POSIX module keeps for one (file, rank) pair:
aggregate byte/operation counters and the first/last timestamps of read,
write and metadata activity.  There is intentionally *no* per-operation
event list — Blue Waters ran without DXT (see :mod:`repro.darshan.counters`).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Any

from . import counters as C
from .errors import TraceFormatError

__all__ = ["JobMeta", "FileRecord", "exact_int"]


def exact_int(value: Any, bits: int = 64) -> int:
    """``value`` as the integer a signed ``bits``-bit column holds.

    The one numeric rule for a trace's counters, ids and rank count,
    whatever format it came from: an integral value, an integral float
    included, or a numeric string of one, reads as that integer.  A
    fractional value, NaN, an infinity, a non-number or a value outside
    the column raises :class:`~repro.darshan.errors.TraceFormatError`,
    so the trace is unreadable rather than rounded or truncated.
    """
    try:
        if isinstance(value, str):  # digits read exactly, "1e3" or "nan" as floats
            value = int(value) if value.strip().lstrip("+-").isdigit() else float(value)
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise TraceFormatError(f"not an integer: {value!r}") from None
    if n != value or not -(1 << (bits - 1)) <= n < 1 << (bits - 1):
        raise TraceFormatError(f"{value!r} is not an int{bits} integer")
    return n


@dataclass(slots=True)
class JobMeta:
    """Job-level header of a trace (Darshan job record equivalent).

    Timestamps are POSIX epoch seconds; all record timestamps are
    *relative* to :attr:`start_time`, matching Darshan fcounters.
    """

    job_id: int
    uid: int
    exe: str
    nprocs: int
    start_time: float
    end_time: float
    machine: str = "bluewaters-syn)".replace(")", "")  # keep literal simple
    partition: str = "scratch"

    def __post_init__(self) -> None:
        # Normalise exe to its basename-like identity: Darshan stores the
        # full command line; MOSAIC's dedup keys on the executable name.
        self.exe = str(self.exe)

    @property
    def run_time(self) -> float:
        """Wall-clock duration of the job in seconds."""
        return self.end_time - self.start_time

    @property
    def app_key(self) -> tuple[int, str]:
        """Deduplication key: MOSAIC assumes all executions of an
        application *by a given user* share I/O behaviour (§III-B1)."""
        return (self.uid, self.exe)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "JobMeta":
        return cls(
            job_id=exact_int(d["job_id"]),
            uid=exact_int(d["uid"]),
            exe=str(d["exe"]),
            nprocs=exact_int(d["nprocs"]),
            start_time=float(d["start_time"]),
            end_time=float(d["end_time"]),
            machine=str(d.get("machine", "bluewaters-syn")),
            partition=str(d.get("partition", "scratch")),
        )


@dataclass(slots=True)
class FileRecord:
    """Aggregated POSIX activity of one (file, rank) pair.

    Timestamps are seconds relative to job start; ``-1.0``
    (:data:`repro.darshan.counters.NO_TIMESTAMP`) means "never happened".
    ``rank == -1`` marks a shared record (file accessed collectively; the
    counters are then totals across all ranks, as real Darshan reduces
    shared files at finalize time).
    """

    file_id: int
    file_name: str
    rank: int

    # metadata counters
    opens: int = 0
    closes: int = 0
    seeks: int = 0
    stats: int = 0

    # data counters
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    # fcounters (seconds relative to job start)
    open_start: float = C.NO_TIMESTAMP
    close_end: float = C.NO_TIMESTAMP
    read_start: float = C.NO_TIMESTAMP
    read_end: float = C.NO_TIMESTAMP
    write_start: float = C.NO_TIMESTAMP
    write_end: float = C.NO_TIMESTAMP
    read_time: float = 0.0
    write_time: float = 0.0
    meta_time: float = 0.0

    # ------------------------------------------------------------------
    @property
    def metadata_ops(self) -> int:
        """Total metadata requests attributed to this record.

        Matches the paper's §III-B3c accounting: OPEN + CLOSE + SEEK
        (SEEKs are assumed co-located with OPENs because Blue Waters-era
        Darshan did not timestamp them).  STATs are tracked but — like in
        the paper — not part of the spike accounting.
        """
        return self.opens + self.closes + self.seeks

    @property
    def has_read(self) -> bool:
        """True if the record carries any read activity."""
        return self.bytes_read > 0 and self.read_start >= 0.0

    @property
    def has_write(self) -> bool:
        """True if the record carries any write activity."""
        return self.bytes_written > 0 and self.write_start >= 0.0

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Export integer counters keyed by Darshan counter names."""
        return {
            C.POSIX_OPENS: self.opens,
            C.POSIX_CLOSES: self.closes,
            C.POSIX_SEEKS: self.seeks,
            C.POSIX_STATS: self.stats,
            C.POSIX_READS: self.reads,
            C.POSIX_WRITES: self.writes,
            C.POSIX_BYTES_READ: self.bytes_read,
            C.POSIX_BYTES_WRITTEN: self.bytes_written,
        }

    def fcounters(self) -> dict[str, float]:
        """Export float counters keyed by Darshan fcounter names."""
        return {
            C.POSIX_F_OPEN_START_TIMESTAMP: self.open_start,
            C.POSIX_F_CLOSE_END_TIMESTAMP: self.close_end,
            C.POSIX_F_READ_START_TIMESTAMP: self.read_start,
            C.POSIX_F_READ_END_TIMESTAMP: self.read_end,
            C.POSIX_F_WRITE_START_TIMESTAMP: self.write_start,
            C.POSIX_F_WRITE_END_TIMESTAMP: self.write_end,
            C.POSIX_F_READ_TIME: self.read_time,
            C.POSIX_F_WRITE_TIME: self.write_time,
            C.POSIX_F_META_TIME: self.meta_time,
        }

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "file_id": self.file_id,
            "file_name": self.file_name,
            "rank": self.rank,
        }
        d.update(self.counters())
        d.update(self.fcounters())
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FileRecord":
        return cls(
            file_id=exact_int(d["file_id"]),
            file_name=str(d.get("file_name", "")),
            rank=exact_int(d["rank"], 32),
            opens=exact_int(d.get(C.POSIX_OPENS, 0)),
            closes=exact_int(d.get(C.POSIX_CLOSES, 0)),
            seeks=exact_int(d.get(C.POSIX_SEEKS, 0)),
            stats=exact_int(d.get(C.POSIX_STATS, 0)),
            reads=exact_int(d.get(C.POSIX_READS, 0)),
            writes=exact_int(d.get(C.POSIX_WRITES, 0)),
            bytes_read=exact_int(d.get(C.POSIX_BYTES_READ, 0)),
            bytes_written=exact_int(d.get(C.POSIX_BYTES_WRITTEN, 0)),
            open_start=float(d.get(C.POSIX_F_OPEN_START_TIMESTAMP, C.NO_TIMESTAMP)),
            close_end=float(d.get(C.POSIX_F_CLOSE_END_TIMESTAMP, C.NO_TIMESTAMP)),
            read_start=float(d.get(C.POSIX_F_READ_START_TIMESTAMP, C.NO_TIMESTAMP)),
            read_end=float(d.get(C.POSIX_F_READ_END_TIMESTAMP, C.NO_TIMESTAMP)),
            write_start=float(d.get(C.POSIX_F_WRITE_START_TIMESTAMP, C.NO_TIMESTAMP)),
            write_end=float(d.get(C.POSIX_F_WRITE_END_TIMESTAMP, C.NO_TIMESTAMP)),
            read_time=float(d.get(C.POSIX_F_READ_TIME, 0.0)),
            write_time=float(d.get(C.POSIX_F_WRITE_TIME, 0.0)),
            meta_time=float(d.get(C.POSIX_F_META_TIME, 0.0)),
        )
