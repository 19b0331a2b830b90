"""JSON codec for Darshan-equivalent traces.

The JSON layout mirrors ``darshan-parser --json``-style output: a ``job``
header plus a list of POSIX records keyed by the canonical Darshan counter
names from :mod:`repro.darshan.counters`.  This is the interchange format
of the repo (human-inspectable, versioned); the binary codec in
:mod:`repro.darshan.io_binary` is the bulk-storage format.

Decoding is hardened against hostile documents (docs/ROBUSTNESS.md):
nesting depth is bounded by a pre-parse scan (depth bombs never reach
the recursive parser), record counts are capped, oversized payloads and
gzip decompression bombs are refused before materializing, and every
malformed-structure failure mode (wrong types, non-finite job times, a
counter or id its int64 column cannot hold exactly) raises
:class:`~repro.darshan.errors.TraceFormatError` instead of leaking
``RecursionError``/``AttributeError`` out of the decode layer.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import zlib
from typing import Any

from .errors import TraceFormatError
from .limits import DEFAULT_LIMITS, DecodeLimits
from .trace import Trace

__all__ = ["dumps", "loads", "save_json", "load_json"]

FORMAT_NAME = "mosaic-darshan-json"
FORMAT_VERSION = 1


def dumps(trace: Trace, *, indent: int | None = None) -> str:
    """Serialize ``trace`` to a JSON string."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        **trace.to_dict(),
    }
    return json.dumps(doc, indent=indent)


def _check_depth(payload: str, max_depth: int) -> None:
    """Refuse documents nested deeper than ``max_depth``.

    One linear pass over the raw text tracking bracket nesting outside
    string literals — a million-deep ``[[[...`` bomb is rejected here,
    before the recursive JSON parser ever sees it.
    """
    depth = 0
    in_string = False
    escaped = False
    for ch in payload:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            if depth > max_depth:
                raise TraceFormatError(
                    f"JSON trace nested deeper than decode limit {max_depth}"
                )
        elif ch in "]}":
            depth = max(depth - 1, 0)


def _finite_meta_times(trace: Trace) -> None:
    """NaN/Infinity job times poison every downstream rate computation;
    JSON admits them (``Infinity`` literals), the trace schema does not."""
    for label, value in (
        ("start_time", trace.meta.start_time),
        ("end_time", trace.meta.end_time),
    ):
        if not math.isfinite(value):
            raise TraceFormatError(f"non-finite job {label}: {value!r}")


def loads(payload: str | bytes, limits: DecodeLimits = DEFAULT_LIMITS) -> Trace:
    """Parse a trace from a JSON string produced by :func:`dumps`."""
    if len(payload) > limits.max_payload_bytes:
        raise TraceFormatError(
            f"trace payload of {len(payload)} bytes exceeds decode limit "
            f"{limits.max_payload_bytes}"
        )
    if isinstance(payload, bytes):
        try:
            payload = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"malformed JSON trace: {exc}") from exc
    _check_depth(payload, limits.max_json_depth)
    try:
        doc: dict[str, Any] = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise TraceFormatError(f"malformed JSON trace: {exc}") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError("JSON trace must be an object")
    if doc.get("format") != FORMAT_NAME:
        raise TraceFormatError(
            f"not a {FORMAT_NAME} document (format={doc.get('format')!r})"
        )
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported trace version: {version!r}")
    records = doc.get("records", [])
    if not isinstance(records, list):
        raise TraceFormatError("JSON trace 'records' must be a list")
    if len(records) > limits.max_records:
        raise TraceFormatError(
            f"record count {len(records)} exceeds decode limit "
            f"{limits.max_records}"
        )
    try:
        trace = Trace.from_dict(doc)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise TraceFormatError(f"invalid trace payload: {exc}") from exc
    _finite_meta_times(trace)
    return trace


def save_json(trace: Trace, path: str | os.PathLike[str], *, indent: int | None = None) -> None:
    """Write ``trace`` to ``path``; ``.gz`` suffix enables gzip."""
    text = dumps(trace, indent=indent)
    path = os.fspath(path)
    if path.endswith(".gz"):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        with io.open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_json(
    path: str | os.PathLike[str], limits: DecodeLimits = DEFAULT_LIMITS
) -> Trace:
    """Read a trace written by :func:`save_json`.

    Plain files are size-checked before reading; gzip members are read
    through a capped window so a decompression bomb is refused after at
    most ``limits.max_payload_bytes`` expanded bytes, not after filling
    RAM.
    """
    path = os.fspath(path)
    try:
        if path.endswith(".gz"):
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                text = fh.read(limits.max_payload_bytes + 1)
                if len(text) > limits.max_payload_bytes:
                    raise TraceFormatError(
                        f"gzip trace {path!r} expands past decode limit "
                        f"{limits.max_payload_bytes}"
                    )
                return loads(text, limits)
        size = os.stat(path).st_size
        if size > limits.max_payload_bytes:
            raise TraceFormatError(
                f"trace file {path!r} is {size} bytes, exceeding decode "
                f"limit {limits.max_payload_bytes}"
            )
        with io.open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read(), limits)
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"cannot decode trace file {path!r}: {exc}") from exc
    except (OSError, EOFError, zlib.error) as exc:
        # gzip surfaces truncation as EOFError and corrupt streams as
        # BadGzipFile (OSError) or raw zlib.error, depending on where
        # the damage sits
        raise TraceFormatError(f"cannot read trace file {path!r}: {exc}") from exc
