"""Corruption injection.

32% of the Blue Waters 2019 traces were corrupted and evicted by
MOSAIC's validity check (Fig. 3); the paper's example cause is a
deallocation recorded before the end of the execution.  This module
mutates valid traces into corrupted ones covering the whole
:class:`~repro.darshan.validate.Violation` taxonomy, so the funnel
experiment exercises every eviction path.

Beyond the paper's semantic corruption, two *adversarial* tiers feed
the robustness experiments (docs/ROBUSTNESS.md):

* :func:`adversarial_payload` damages **serialized bytes** the way a
  hostile or half-written file would — lying binary length fields, JSON
  depth bombs, truncations, bit rot.  These must land in the funnel as
  :attr:`~repro.darshan.validate.Violation.UNREADABLE`, never crash a
  reader.
* :func:`flood_trace` produces a **valid but oversized** trace (the
  record count multiplied, per-record volume split so totals and
  category-relevant behaviour are preserved).  Floods are *not* part of
  the random corruption pick — they are valid traces with ground truth,
  generated via :attr:`~repro.synth.fleet.FleetConfig.flood_fraction`
  so fleet runs exercise the resource governor with known labels.
"""

from __future__ import annotations

import struct
from dataclasses import replace
from typing import Callable

import numpy as np

from ..darshan.records import FileRecord
from ..darshan.trace import Trace

__all__ = [
    "corrupt_trace",
    "CORRUPTION_KINDS",
    "adversarial_payload",
    "ADVERSARIAL_KINDS",
    "flood_trace",
]


def _copy(trace: Trace) -> Trace:
    """``trace`` with a header and records of its own to change."""
    return Trace(replace(trace.meta), [replace(rec) for rec in trace.records])


def _pick_record(trace: Trace, rng: np.random.Generator) -> FileRecord | None:
    if not trace.records:
        return None
    return trace.records[int(rng.integers(0, len(trace.records)))]


def _dealloc_before_end(trace: Trace, rng: np.random.Generator) -> bool:
    """The paper's flagship case: close the file before its activity ends."""
    for rec in trace.records:
        last = max(rec.read_end, rec.write_end)
        if last > 0 and rec.close_end >= last:
            rec.close_end = last * float(rng.uniform(0.2, 0.8))
            rec.open_start = min(rec.open_start, rec.close_end)
            if rec.open_start < 0:
                rec.open_start = 0.0
            return True
    return False


def _negative_runtime(trace: Trace, rng: np.random.Generator) -> bool:
    trace.meta.end_time = trace.meta.start_time - float(rng.uniform(1.0, 100.0))
    return True


def _inverted_window(trace: Trace, rng: np.random.Generator) -> bool:
    rec = _pick_record(trace, rng)
    if rec is None:
        return False
    if rec.read_start >= 0:
        rec.read_start, rec.read_end = rec.read_end + 1.0, rec.read_start
        return True
    if rec.write_start >= 0:
        rec.write_start, rec.write_end = rec.write_end + 1.0, rec.write_start
        return True
    rec.open_start, rec.close_end = rec.close_end + 1.0, max(rec.open_start, 0.0)
    return True


def _negative_counter(trace: Trace, rng: np.random.Generator) -> bool:
    rec = _pick_record(trace, rng)
    if rec is None:
        return False
    rec.bytes_written = -abs(rec.bytes_written) - 1
    return True


def _timestamp_after_end(trace: Trace, rng: np.random.Generator) -> bool:
    rec = _pick_record(trace, rng)
    if rec is None:
        return False
    overshoot = trace.meta.run_time * float(rng.uniform(1.5, 3.0))
    if rec.write_start >= 0:
        rec.write_end = overshoot
        rec.close_end = max(rec.close_end, overshoot)
    elif rec.read_start >= 0:
        rec.read_end = overshoot
        rec.close_end = max(rec.close_end, overshoot)
    else:
        rec.close_end = overshoot
    return True


def _bytes_without_window(trace: Trace, rng: np.random.Generator) -> bool:
    rec = _pick_record(trace, rng)
    if rec is None:
        return False
    rec.bytes_written = max(rec.bytes_written, 1)
    rec.write_start = -1.0
    rec.write_end = -1.0
    return True


CORRUPTION_KINDS: dict[str, Callable[[Trace, np.random.Generator], bool]] = {
    "dealloc_before_end": _dealloc_before_end,
    "negative_runtime": _negative_runtime,
    "inverted_window": _inverted_window,
    "negative_counter": _negative_counter,
    "timestamp_after_end": _timestamp_after_end,
    "bytes_without_window": _bytes_without_window,
}


def corrupt_trace(
    trace: Trace, rng: np.random.Generator, kind: str | None = None
) -> Trace:
    """Return a corrupted deep copy of ``trace``.

    ``kind`` selects a specific corruption; ``None`` picks one at random,
    weighted toward the paper's dealloc-before-end example.  Falls back
    to ``negative_runtime`` (always applicable) if the chosen mutation
    does not apply to this trace.
    """
    mutated = _copy(trace)
    if kind is None:
        names = list(CORRUPTION_KINDS)
        weights = np.array(
            [3.0 if n == "dealloc_before_end" else 1.0 for n in names]
        )
        kind = str(rng.choice(names, p=weights / weights.sum()))
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind: {kind!r}")
    if not CORRUPTION_KINDS[kind](mutated, rng):
        _negative_runtime(mutated, rng)
    return mutated


# ----------------------------------------------------------------------
# adversarial payload damage (serialized bytes, not Trace objects)


def _payload_truncate(payload: bytes, rng: np.random.Generator) -> bytes:
    if len(payload) < 2:
        return b""
    return payload[: int(rng.integers(1, len(payload)))]


def _payload_bit_rot(payload: bytes, rng: np.random.Generator) -> bytes:
    buf = bytearray(payload)
    for _ in range(max(1, len(buf) // 256)):
        i = int(rng.integers(0, len(buf)))
        buf[i] ^= 1 << int(rng.integers(0, 8))
    return bytes(buf)


def _payload_length_lie(payload: bytes, rng: np.random.Generator) -> bytes:
    """Inflate the record-count/string-table header of a MOSD payload
    (the allocation bomb); non-binary payloads get their leading bytes
    splattered instead."""
    from ..darshan.io_binary import _COUNTS, _HEADER, _JOB, MAGIC

    if payload[:4] == MAGIC and len(payload) >= _HEADER.size + _JOB.size:
        str_lens_off = _HEADER.size + struct.calcsize("<qqqdd")
        n_exe, n_mach, n_part = struct.unpack_from("<HHH", payload, str_lens_off)
        off = _HEADER.size + _JOB.size + n_exe + n_mach + n_part
        if len(payload) >= off + _COUNTS.size:
            buf = bytearray(payload)
            buf[off : off + _COUNTS.size] = _COUNTS.pack(
                int(rng.integers(10_000_000, 0xFFFFFFFF)),
                int(rng.integers(2**28, 0xFFFFFFFF)),
            )
            return bytes(buf)
    return _payload_bit_rot(payload, rng)


def _payload_depth_bomb(payload: bytes, rng: np.random.Generator) -> bytes:
    """Wrap the document in thousands of JSON arrays."""
    k = int(rng.integers(1_000, 100_000))
    return b"[" * k + payload + b"]" * k


#: name → serialized-payload mutator.
ADVERSARIAL_KINDS: dict[
    str, Callable[[bytes, np.random.Generator], bytes]
] = {
    "truncate": _payload_truncate,
    "bit_rot": _payload_bit_rot,
    "length_lie": _payload_length_lie,
    "depth_bomb": _payload_depth_bomb,
}


def adversarial_payload(
    payload: bytes, rng: np.random.Generator, kind: str | None = None
) -> bytes:
    """Damage a serialized trace the way hostile bytes would.

    The result must decode to nothing: every reader either raises
    :class:`~repro.darshan.errors.TraceFormatError` or (for bit rot
    that happens to stay well-formed) a semantically corrupt trace the
    validity stage evicts.  ``kind`` picks one of
    :data:`ADVERSARIAL_KINDS`; ``None`` draws uniformly.
    """
    if kind is None:
        names = list(ADVERSARIAL_KINDS)
        kind = str(rng.choice(names))
    if kind not in ADVERSARIAL_KINDS:
        raise ValueError(f"unknown adversarial kind: {kind!r}")
    return ADVERSARIAL_KINDS[kind](payload, rng)


# ----------------------------------------------------------------------
# op floods: valid but oversized


def flood_trace(
    trace: Trace, rng: np.random.Generator, factor: int = 32
) -> Trace:
    """Return a *valid* copy of ``trace`` with ``factor``× the records.

    Each record is split into ``factor`` clones covering the same
    activity windows, the byte counters divided among them (remainder on
    the first clone), so total volume, window extents, and therefore
    every MOSAIC category of the trace are preserved — only the
    operation count explodes.  This is the governed-degradation test
    vehicle: a flooded trace keeps its ground-truth labels while
    tripping any reasonable per-trace operation budget.
    """
    if factor < 2:
        raise ValueError("flood factor must be >= 2")
    flooded = _copy(trace)
    new_records: list[FileRecord] = []
    next_id = max((r.file_id for r in flooded.records), default=0) + 1
    for rec in flooded.records:
        for k in range(factor):
            clone = replace(rec)
            if k > 0:
                clone.file_id = next_id
                next_id += 1
            for attr in ("bytes_read", "bytes_written", "reads", "writes",
                         "opens", "closes", "seeks", "stats"):
                total = getattr(rec, attr)
                share = total // factor
                if k == 0:
                    share += total - share * factor
                setattr(clone, attr, share)
            new_records.append(clone)
    flooded.records = new_records
    return flooded
