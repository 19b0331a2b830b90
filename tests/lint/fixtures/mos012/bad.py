"""Fixture: input-hardening contracts violated (MOS012)."""

import os
import struct
from typing import BinaryIO

from repro.core.governor import DegradationLevel


def _describe(level: DegradationLevel) -> str:
    # missing MINIMAL and FLAGGED, no default
    if level == DegradationLevel.FULL:
        return "everything ran"
    elif level == DegradationLevel.COARSE:
        return "subsampled"
    return ""


def _label(level: DegradationLevel) -> str:
    match level:
        case DegradationLevel.FULL:
            return "full"
        case DegradationLevel.COARSE:
            return "coarse"
        case DegradationLevel.MINIMAL:
            return "minimal"
    return ""


def _decode_records(fh: BinaryIO) -> bytes:
    header = fh.read(4)
    (n_records,) = struct.unpack("<I", header)
    # believes the header's declared count: the allocation bomb
    return fh.read(n_records * 112)


def _read_declared(fd_cap: int) -> bytes:
    (declared,) = struct.unpack("<I", os.read(fd_cap, 4))
    # the descriptor's name is no bound: the header-declared size is read
    return os.read(fd_cap, declared)
