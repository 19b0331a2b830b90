"""Fixture: input-hardening contracts honoured (MOS012)."""

import os
import struct
from typing import BinaryIO

from repro.core.governor import DegradationLevel
from repro.darshan.limits import DecodeLimits


def _describe(level: DegradationLevel) -> str:
    # exhaustive: every ladder rung handled
    if level == DegradationLevel.FULL:
        return "everything ran"
    elif level == DegradationLevel.COARSE:
        return "subsampled"
    elif level == DegradationLevel.MINIMAL:
        return "cheap axes only"
    elif level == DegradationLevel.FLAGGED:
        return "identity only"
    return ""


def _label(level: DegradationLevel) -> str:
    match level:
        case DegradationLevel.FULL:
            return "full"
        case _:
            return "degraded"


def _read_checked(fh: BinaryIO, n: int, remaining: int, what: str) -> bytes:
    if n > remaining:
        raise ValueError(what)
    return fh.read(n)


def _decode_records(fh: BinaryIO, remaining: int, max_record_bytes: int) -> bytes:
    header = fh.read(4)
    (n_records,) = struct.unpack("<I", header)
    n = min(n_records * 112, max_record_bytes)
    return _read_checked(fh, n, remaining, "record section")


def _read_capped(fd: int, limits: DecodeLimits) -> bytes:
    # os.read sizes by its second argument, here a decode limit
    return os.read(fd, limits.max_payload_bytes)
