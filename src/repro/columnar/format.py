"""MOSC on-disk layout: the columnar corpus store format.

One ``.mosc`` file holds an entire compiled corpus as flat, memory-map
friendly sections:

========  ==================================================================
section   contents
========  ==================================================================
index     one :data:`TRACE_DTYPE` row per trace — identity scalars, dedup
          weight, validation bitmask, and the offsets/counts locating the
          trace's slabs in every other section
records   one :data:`RECORD_DTYPE` row per file record (every
          ``FileRecord`` field, so decode is bit-for-bit)
ops_*     the derived flat operation table (start / end / volume columns),
          per trace: read ops sorted by start, then write ops sorted by
          start — exactly ``Trace.operations(direction)``
heap      UTF-8 string heap (exe / machine / partition / file names),
          deduplicated, addressed by (offset, length) pairs
========  ==================================================================

No metadata *event stream* is stored or reconstructed: a record with
``k`` opens implies ``2k`` events (metadata-heavy traces reach
millions), while the record row is 140 bytes.  The reader hands the
records' metadata columns to the closed-form binning kernel, which
counts each bin's requests without building events
(:meth:`repro.columnar.store.CorpusStore.metadata_events_batch`).

The fixed-size header carries magic, version, section counts, and a
section table (offset, byte length, CRC32 per section) plus its own
CRC32, so truncation and bit rot are detectable *before* any section is
interpreted — the same hostile-input posture as the MOSD trace codec
(:mod:`repro.darshan.io_binary`), enforced against
:class:`~repro.darshan.limits.DecodeLimits` by the reader.

Version 2 adds a ``trace_crcs`` section: one CRC32 per trace, chained
over the trace's index row, record slab, operation slabs, and every heap
string it references (:func:`trace_crc32`).  Section CRCs detect *that*
a store is damaged; per-trace CRCs localize *which traces* the damage
hits, which is what lets ``mosaic verify --repair`` salvage everything
else.  Version-1 stores still open read-only (no per-trace CRCs, so
verification degrades to the section-level audit).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..darshan.validate import Violation

__all__ = [
    "MAGIC",
    "VERSION",
    "ALIGN",
    "HEADER_SIZE",
    "SECTION_NAMES",
    "TRACE_DTYPE",
    "RECORD_DTYPE",
    "TRACE_CRC_DTYPE",
    "FLAG_REPAIRED",
    "header_size",
    "section_names",
    "violation_bit",
    "violations_from_mask",
    "pack_header",
    "unpack_header",
    "trace_crc32",
]

MAGIC = b"MOSC"
VERSION = 2

#: Versions :func:`unpack_header` still parses (v1: no ``trace_crcs``).
SUPPORTED_VERSIONS = frozenset({1, 2})

#: Header flag: the corpus was compiled with repair heuristics applied.
FLAG_REPAIRED = 1 << 0

#: magic, version, flags, n_traces, n_records, n_ops, heap_len,
#: n_unreadable
_FIXED = struct.Struct("<4sHHQQQQQ")
#: per-section (offset, byte length, crc32)
_SECTION = struct.Struct("<QQI")
_HEADER_CRC = struct.Struct("<I")

_SECTION_NAMES_V1 = (
    "index",
    "records",
    "ops_starts",
    "ops_ends",
    "ops_volumes",
    "heap",
)

#: Current (version-2) section order; ``trace_crcs`` rides last so the
#: v1 prefix layout is unchanged.
SECTION_NAMES = _SECTION_NAMES_V1 + ("trace_crcs",)


def section_names(version: int = VERSION) -> tuple[str, ...]:
    """Section order for a given format version."""
    return _SECTION_NAMES_V1 if version == 1 else SECTION_NAMES


def header_size(version: int = VERSION) -> int:
    """Exact header byte length for a given format version."""
    return (
        _FIXED.size
        + len(section_names(version)) * _SECTION.size
        + _HEADER_CRC.size
    )


HEADER_SIZE = header_size(VERSION)

#: The smallest header any supported version can have (v1's).
MIN_HEADER_SIZE = header_size(1)

#: Section payload alignment (keeps mmap'd float64 columns aligned).
ALIGN = 64

#: One CRC32 per trace (version 2+), see :func:`trace_crc32`.
TRACE_CRC_DTYPE = np.dtype("<u4")

TRACE_DTYPE = np.dtype(
    [
        ("job_id", "<i8"),
        ("uid", "<i8"),
        ("nprocs", "<i8"),
        ("start_time", "<f8"),
        ("end_time", "<f8"),
        ("io_weight", "<f8"),
        ("total_meta_ops", "<i8"),
        ("total_bytes", "<i8"),
        ("violations", "<u4"),
        ("repaired", "<u1"),
        ("exe_off", "<u8"),
        ("exe_len", "<u4"),
        ("machine_off", "<u8"),
        ("machine_len", "<u4"),
        ("partition_off", "<u8"),
        ("partition_len", "<u4"),
        ("rec_off", "<u8"),
        ("n_records", "<u4"),
        ("ops_off", "<u8"),
        ("n_read_ops", "<u4"),
        ("n_write_ops", "<u4"),
    ]
)

RECORD_DTYPE = np.dtype(
    [
        ("file_id", "<i8"),
        ("rank", "<i8"),
        ("opens", "<i8"),
        ("closes", "<i8"),
        ("seeks", "<i8"),
        ("stats", "<i8"),
        ("reads", "<i8"),
        ("writes", "<i8"),
        ("bytes_read", "<i8"),
        ("bytes_written", "<i8"),
        ("open_start", "<f8"),
        ("close_end", "<f8"),
        ("read_start", "<f8"),
        ("read_end", "<f8"),
        ("write_start", "<f8"),
        ("write_end", "<f8"),
        ("read_time", "<f8"),
        ("write_time", "<f8"),
        ("meta_time", "<f8"),
        ("name_off", "<u8"),
        ("name_len", "<u4"),
    ]
)

#: Stable bit position per validation category (bitmask in the index).
_VIOLATION_ORDER: tuple[Violation, ...] = tuple(Violation)
_VIOLATION_BIT = {v: i for i, v in enumerate(_VIOLATION_ORDER)}


def violation_bit(violation: Violation) -> int:
    """Bit assigned to one :class:`Violation` category."""
    return 1 << _VIOLATION_BIT[violation]


def violations_from_mask(mask: int) -> set[Violation]:
    """Decode a violation bitmask back into categories."""
    return {
        v for v, i in _VIOLATION_BIT.items() if mask & (1 << i)
    }


def pack_header(
    *,
    flags: int,
    n_traces: int,
    n_records: int,
    n_ops: int,
    heap_len: int,
    n_unreadable: int,
    sections: list[tuple[int, int, int]],
) -> bytes:
    """Serialize the current-version header (appends its own CRC32)."""
    if len(sections) != len(SECTION_NAMES):
        raise ValueError("one section entry per SECTION_NAMES required")
    body = _FIXED.pack(
        MAGIC,
        VERSION,
        flags,
        n_traces,
        n_records,
        n_ops,
        heap_len,
        n_unreadable,
    )
    for offset, nbytes, crc in sections:
        body += _SECTION.pack(offset, nbytes, crc)
    return body + _HEADER_CRC.pack(zlib.crc32(body))


def unpack_header(raw: bytes) -> dict:
    """Parse and CRC-check a header buffer.

    ``raw`` must hold at least the header of the version it declares
    (pass the file's first :data:`HEADER_SIZE` bytes; extra trailing
    bytes are ignored, which is how the version-1 shim works — a v1
    header is shorter than v2's).  Returns the parsed fields, including
    ``"version"``; raises ``ValueError`` on any structural problem (the
    reader converts that to ``TraceFormatError``).
    """
    if len(raw) < _FIXED.size:
        raise ValueError(
            f"header is {len(raw)} bytes, smaller than the "
            f"{_FIXED.size}-byte fixed prefix"
        )
    (
        magic,
        version,
        flags,
        n_traces,
        n_records,
        n_ops,
        heap_len,
        n_unreadable,
    ) = _FIXED.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported store version {version} "
            f"(supported: {sorted(SUPPORTED_VERSIONS)})"
        )
    expected = header_size(version)
    if len(raw) < expected:
        raise ValueError(
            f"header is {len(raw)} bytes, expected {expected} for "
            f"version {version}"
        )
    raw = raw[:expected]
    body, (crc,) = raw[: -_HEADER_CRC.size], _HEADER_CRC.unpack(
        raw[-_HEADER_CRC.size :]
    )
    if zlib.crc32(body) != crc:
        raise ValueError("header CRC mismatch (truncated or bit-rotted)")
    sections: dict[str, tuple[int, int, int]] = {}
    base = _FIXED.size
    for i, name in enumerate(section_names(version)):
        sections[name] = _SECTION.unpack_from(
            body, base + i * _SECTION.size
        )
    return {
        "version": version,
        "flags": flags,
        "n_traces": n_traces,
        "n_records": n_records,
        "n_ops": n_ops,
        "heap_len": heap_len,
        "n_unreadable": n_unreadable,
        "sections": sections,
    }


def trace_crc32(
    index: np.ndarray,
    records: np.ndarray,
    ops_starts: np.ndarray,
    ops_ends: np.ndarray,
    ops_volumes: np.ndarray,
    heap: bytes,
    row: int,
) -> int:
    """CRC32 of everything one trace owns in the store.

    Chained over the trace's index row, its record slab, its three
    operation slabs, and every heap string it references (exe, machine,
    partition, then each record's file name, in slab order).  Computed
    identically at compile time and by ``mosaic verify``, so any flipped
    bit in any byte a trace depends on changes exactly that trace's CRC.
    The caller is responsible for bounds (the reader validates the index
    before CRCs are consulted).
    """
    r = index[row]
    crc = zlib.crc32(index[row : row + 1].tobytes())
    lo = int(r["rec_off"])
    hi = lo + int(r["n_records"])
    rec = records[lo:hi]
    crc = zlib.crc32(rec.tobytes(), crc)
    olo = int(r["ops_off"])
    ohi = olo + int(r["n_read_ops"]) + int(r["n_write_ops"])
    for arr in (ops_starts, ops_ends, ops_volumes):
        crc = zlib.crc32(np.ascontiguousarray(arr[olo:ohi]).tobytes(), crc)
    for field in ("exe", "machine", "partition"):
        off = int(r[f"{field}_off"])
        crc = zlib.crc32(heap[off : off + int(r[f"{field}_len"])], crc)
    for off, length in zip(rec["name_off"], rec["name_len"]):
        crc = zlib.crc32(heap[int(off) : int(off) + int(length)], crc)
    return crc & 0xFFFFFFFF
