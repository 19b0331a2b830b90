"""darshan-parser-style text codec.

Real-world Darshan logs are usually inspected through ``darshan-parser``,
which emits a ``# key: value`` header followed by one line per
(module, rank, record, counter) tuple.  This codec writes and reads that
shape, so output produced by actual Darshan tooling (restricted to the
POSIX counters MOSAIC consumes) can be ingested after a trivial
``darshan-parser <log> | grep POSIX`` and, conversely, our synthetic
traces can be inspected with standard text tools.

Line format::

    # darshan log version: 3.41
    # exe: <command line>
    # uid: <uid>
    # jobid: <jobid>
    # start_time: <epoch seconds>
    # end_time: <epoch seconds>
    # nprocs: <ranks>

    POSIX\t<rank>\t<record id>\t<COUNTER>\t<value>\t<file name>

Unknown counters are ignored (real logs carry dozens MOSAIC never
reads); structurally broken lines raise
:class:`~repro.darshan.errors.TraceFormatError`.

Decoding is hardened (docs/ROBUSTNESS.md): payload size, single-line
length, and the decoded record count are all capped by
:class:`~repro.darshan.limits.DecodeLimits`, non-UTF-8 files and
non-finite header times are refused, and a counter, id or rank count
that its int64 column cannot hold exactly (a fraction, NaN, an infinity,
a value past int64; :func:`~repro.darshan.records.exact_int`) raises
:class:`TraceFormatError` rather than being rounded.
"""

from __future__ import annotations

import io
import math
import os

from . import counters as C
from .errors import TraceFormatError
from .limits import DEFAULT_LIMITS, DecodeLimits
from .records import FileRecord, JobMeta, exact_int
from .trace import Trace

__all__ = ["dumps_text", "loads_text", "save_text", "load_text"]

_HEADER_KEYS = ("exe", "uid", "jobid", "start_time", "end_time", "nprocs")

#: counter name → FileRecord attribute, for both directions of the codec.
_INT_FIELDS = {
    C.POSIX_OPENS: "opens",
    C.POSIX_CLOSES: "closes",
    C.POSIX_SEEKS: "seeks",
    C.POSIX_STATS: "stats",
    C.POSIX_READS: "reads",
    C.POSIX_WRITES: "writes",
    C.POSIX_BYTES_READ: "bytes_read",
    C.POSIX_BYTES_WRITTEN: "bytes_written",
}
_FLOAT_FIELDS = {
    C.POSIX_F_OPEN_START_TIMESTAMP: "open_start",
    C.POSIX_F_CLOSE_END_TIMESTAMP: "close_end",
    C.POSIX_F_READ_START_TIMESTAMP: "read_start",
    C.POSIX_F_READ_END_TIMESTAMP: "read_end",
    C.POSIX_F_WRITE_START_TIMESTAMP: "write_start",
    C.POSIX_F_WRITE_END_TIMESTAMP: "write_end",
    C.POSIX_F_READ_TIME: "read_time",
    C.POSIX_F_WRITE_TIME: "write_time",
    C.POSIX_F_META_TIME: "meta_time",
}


def dumps_text(trace: Trace) -> str:
    """Serialize ``trace`` as darshan-parser-style text."""
    meta = trace.meta
    out = io.StringIO()
    out.write("# darshan log version: 3.41\n")
    out.write(f"# exe: {meta.exe}\n")
    out.write(f"# uid: {meta.uid}\n")
    out.write(f"# jobid: {meta.job_id}\n")
    out.write(f"# start_time: {meta.start_time}\n")
    out.write(f"# end_time: {meta.end_time}\n")
    out.write(f"# nprocs: {meta.nprocs}\n")
    out.write("\n# <module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>\n")
    for rec in trace.records:
        prefix = f"POSIX\t{rec.rank}\t{rec.file_id}"
        for counter, attr in _INT_FIELDS.items():
            out.write(f"{prefix}\t{counter}\t{getattr(rec, attr)}\t{rec.file_name}\n")
        for counter, attr in _FLOAT_FIELDS.items():
            out.write(
                f"{prefix}\t{counter}\t{getattr(rec, attr)!r}\t{rec.file_name}\n"
            )
    return out.getvalue()


def loads_text(payload: str, limits: DecodeLimits = DEFAULT_LIMITS) -> Trace:
    """Parse darshan-parser-style text back into a trace."""
    if len(payload) > limits.max_payload_bytes:
        raise TraceFormatError(
            f"trace payload of {len(payload)} chars exceeds decode limit "
            f"{limits.max_payload_bytes}"
        )
    header: dict[str, str] = {}
    records: dict[tuple[int, int], FileRecord] = {}
    order: list[tuple[int, int]] = []

    for lineno, raw in enumerate(payload.splitlines(), start=1):
        if len(raw) > limits.max_line_chars:
            raise TraceFormatError(
                f"line {lineno}: {len(raw)} chars exceeds decode limit "
                f"{limits.max_line_chars}"
            )
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                header[key.strip()] = value.strip()
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) < 5:
            raise TraceFormatError(f"line {lineno}: malformed record line")
        module, rank_s, rec_id_s, counter, value = parts[:5]
        file_name = parts[5] if len(parts) > 5 else ""
        if module != "POSIX":
            continue  # other modules are legal, just not modelled
        try:
            rank = exact_int(rank_s, 32)
            rec_id = exact_int(rec_id_s)
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {lineno}: bad rank/record id") from exc
        key = (rec_id, rank)
        if key not in records:
            if len(records) >= limits.max_records:
                raise TraceFormatError(
                    f"line {lineno}: record count exceeds decode limit "
                    f"{limits.max_records}"
                )
            records[key] = FileRecord(file_id=rec_id, file_name=file_name, rank=rank)
            order.append(key)
        rec = records[key]
        if file_name and not rec.file_name:
            rec.file_name = file_name
        try:
            if counter in _INT_FIELDS:
                setattr(rec, _INT_FIELDS[counter], exact_int(value))
            elif counter in _FLOAT_FIELDS:
                setattr(rec, _FLOAT_FIELDS[counter], float(value))
            # unknown counters: skipped (real logs carry many more)
        except (TraceFormatError, ValueError) as exc:
            raise TraceFormatError(
                f"line {lineno}: bad value for {counter}: {value!r}"
            ) from exc

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise TraceFormatError(f"missing header fields: {missing}")
    try:
        meta = JobMeta(
            job_id=exact_int(header["jobid"]),
            uid=exact_int(header["uid"]),
            exe=header["exe"],
            nprocs=exact_int(header["nprocs"]),
            start_time=float(header["start_time"]),
            end_time=float(header["end_time"]),
        )
    except (TraceFormatError, ValueError) as exc:
        raise TraceFormatError(f"bad header value: {exc}") from exc
    for label, value in (("start_time", meta.start_time), ("end_time", meta.end_time)):
        if not math.isfinite(value):
            raise TraceFormatError(f"non-finite header {label}: {value!r}")
    return Trace(meta=meta, records=[records[k] for k in order])


def save_text(trace: Trace, path: str | os.PathLike[str]) -> None:
    """Write ``trace`` to ``path`` as darshan-parser text."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(dumps_text(trace))


def load_text(
    path: str | os.PathLike[str], limits: DecodeLimits = DEFAULT_LIMITS
) -> Trace:
    """Read a trace written by :func:`save_text` (or extracted from real
    ``darshan-parser`` output)."""
    try:
        size = os.stat(os.fspath(path)).st_size
        if size > limits.max_payload_bytes:
            raise TraceFormatError(
                f"trace file {path!r} is {size} bytes, exceeding decode "
                f"limit {limits.max_payload_bytes}"
            )
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return loads_text(fh.read(), limits)
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"cannot decode trace file {path!r}: {exc}") from exc
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc
