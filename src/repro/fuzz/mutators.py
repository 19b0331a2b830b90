"""Seed corpus and structure-aware mutations for the reader fuzzer.

Everything here is deterministic: the same ``seed`` always yields the
same case stream, so a finding's ``(format, mutation, seed)`` triple is
a complete reproducer even before its bytes are saved.

Mutations come in two tiers.  The *generic* tier (byte flips,
truncations, duplicated/reordered slices, zero fills, random appends)
knows nothing about the formats and exists to shake out parser-state
assumptions.  The *structural* tier aims at the specific lies the
hardened readers must refuse: binary length fields inflated past the
payload, record counts that claim more records than bytes, JSON depth
bombs and ``Infinity`` literals, text counter values that overflow
``int(float(v))``, and headers deleted wholesale.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..darshan.io_binary import _COUNTS, _HEADER, _JOB, dumps_binary
from ..darshan.io_json import dumps
from ..darshan.io_text import dumps_text
from ..darshan.records import FileRecord, JobMeta
from ..darshan.trace import Trace
from ..synth.appmodel import generate_run
from ..synth.cohorts import cohort_by_name

__all__ = ["FuzzCase", "MUTATIONS", "generate_cases", "seed_payloads"]

#: Cohorts whose runs make structurally diverse seeds (periodic,
#: bursty, metadata-heavy, read-and-write).
_SEED_COHORTS = ("rcw_ckpt_periodic", "w_only_end", "r_steady_only")


def _seed_traces(rng: np.random.Generator) -> list[Trace]:
    """A handful of valid traces spanning the cohort space, plus the
    structural edge cases mutation alone rarely reaches."""
    traces: list[Trace] = []
    for name in _SEED_COHORTS:
        spec = cohort_by_name(name).build(1, rng)
        traces.append(generate_run(spec, 1, rng, force_nominal=True))
    # zero-record trace: the smallest valid payload of every format
    traces.append(
        Trace(
            meta=JobMeta(
                job_id=1,
                uid=10,
                exe="empty.exe",
                nprocs=1,
                start_time=0.0,
                end_time=60.0,
            ),
            records=[],
        )
    )
    # non-ASCII names: exercises every UTF-8 decode path
    traces.append(
        Trace(
            meta=JobMeta(
                job_id=2,
                uid=11,
                exe="süßwasser-模拟.exe",
                nprocs=2,
                start_time=0.0,
                end_time=120.0,
            ),
            records=[
                FileRecord(
                    file_id=7,
                    file_name="/scratch/données/χ.dat",
                    rank=0,
                    opens=1,
                    closes=1,
                    writes=4,
                    bytes_written=4096,
                    open_start=1.0,
                    close_end=5.0,
                    write_start=1.5,
                    write_end=4.5,
                )
            ],
        )
    )
    return traces


def seed_payloads(fmt: str, seed: int) -> list[bytes]:
    """Valid serialized payloads of ``fmt`` ("binary"/"json"/"text")."""
    rng = np.random.default_rng(seed)
    payloads: list[bytes] = []
    for trace in _seed_traces(rng):
        if fmt == "binary":
            payloads.append(dumps_binary(trace))
        elif fmt == "json":
            payloads.append(dumps(trace).encode("utf-8"))
        elif fmt == "text":
            payloads.append(dumps_text(trace).encode("utf-8"))
        else:
            raise ValueError(f"unknown fuzz format: {fmt!r}")
    return payloads


# ----------------------------------------------------------------------
# generic byte-level mutations


def _byte_flip(data: bytes, rng: random.Random) -> bytes:
    if not data:
        return data
    buf = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        i = rng.randrange(len(buf))
        buf[i] ^= 1 << rng.randrange(8)
    return bytes(buf)


def _truncate(data: bytes, rng: random.Random) -> bytes:
    if len(data) < 2:
        return b""
    return data[: rng.randrange(len(data))]


def _extend(data: bytes, rng: random.Random) -> bytes:
    return data + rng.randbytes(rng.randint(1, 64))


def _duplicate_section(data: bytes, rng: random.Random) -> bytes:
    if len(data) < 4:
        return data + data
    a = rng.randrange(len(data))
    b = rng.randrange(a, min(len(data), a + max(1, len(data) // 4)) + 1)
    at = rng.randrange(len(data))
    return data[:at] + data[a:b] + data[at:]


def _reorder_sections(data: bytes, rng: random.Random) -> bytes:
    if len(data) < 8:
        return data[::-1]
    cuts = sorted(rng.randrange(len(data)) for _ in range(3))
    a, b, c = cuts
    return data[:a] + data[b:c] + data[a:b] + data[c:]


def _zero_fill(data: bytes, rng: random.Random) -> bytes:
    if not data:
        return data
    buf = bytearray(data)
    a = rng.randrange(len(buf))
    b = rng.randrange(a, min(len(buf), a + 32) + 1)
    buf[a:b] = b"\x00" * (b - a)
    return bytes(buf)


def _splice(data: bytes, rng: random.Random) -> bytes:
    """Overwrite a random slice with random bytes (keeps length)."""
    if not data:
        return data
    buf = bytearray(data)
    a = rng.randrange(len(buf))
    b = rng.randrange(a, min(len(buf), a + 16) + 1)
    buf[a:b] = rng.randbytes(b - a)
    return bytes(buf)


# ----------------------------------------------------------------------
# structural mutations: format-aware lies

_JOB_OFF = _HEADER.size
_STR_LEN_OFF = _JOB_OFF + struct.calcsize("<qqqdd")  # exe/machine/partition u16s


def _lie_binary_string_len(data: bytes, rng: random.Random) -> bytes:
    """Inflate one of the three job-string length fields."""
    off = _STR_LEN_OFF + 2 * rng.randrange(3)
    if len(data) < off + 2:
        return data
    buf = bytearray(data)
    buf[off : off + 2] = struct.pack("<H", rng.choice((0xFFFF, 0x8000, 0x7FFF)))
    return bytes(buf)


def _binary_counts_offset(data: bytes) -> int | None:
    """Locate the record-count struct of a *valid* binary payload."""
    if len(data) < _JOB_OFF + _JOB.size:
        return None
    n_exe, n_mach, n_part = struct.unpack_from("<HHH", data, _STR_LEN_OFF)
    off = _JOB_OFF + _JOB.size + n_exe + n_mach + n_part
    return off if len(data) >= off + _COUNTS.size else None


def _lie_binary_counts(data: bytes, rng: random.Random) -> bytes:
    """Claim an enormous record count / string table in a tiny file —
    the classic allocation bomb the hardened reader must refuse."""
    off = _binary_counts_offset(data)
    if off is None:
        return data
    buf = bytearray(data)
    n_records = rng.choice((0xFFFFFFFF, 2**31, 10_000_000, 1))
    n_table = rng.choice((0xFFFFFFFF, 2**30, 0))
    buf[off : off + _COUNTS.size] = _COUNTS.pack(n_records, n_table)
    return bytes(buf)


def _json_depth_bomb(data: bytes, rng: random.Random) -> bytes:
    """Nest the document inside thousands of arrays."""
    k = rng.choice((64, 1024, 50_000))
    return b"[" * k + data + b"]" * k


def _json_value_bomb(data: bytes, rng: random.Random) -> bytes:
    """Swap a structural token for a hostile literal (Infinity, NaN,
    1e400, a huge int) somewhere inside the document."""
    token = rng.choice([b"Infinity", b"NaN", b"1e400", b"-1e-400", b"9" * 400])
    text = bytearray(data)
    colons = [i for i, ch in enumerate(text) if ch == ord(":")]
    if not colons:
        return bytes(token)
    i = rng.choice(colons)
    j = i + 1
    while j < len(text) and text[j] not in (ord(","), ord("}"), ord("]")):
        j += 1
    return bytes(text[: i + 1]) + token + bytes(text[j:])


def _text_counter_overflow(data: bytes, rng: random.Random) -> bytes:
    """Replace one counter value with an overflow/garbage literal."""
    lines = data.split(b"\n")
    rec_lines = [i for i, ln in enumerate(lines) if ln.startswith(b"POSIX")]
    if not rec_lines:
        return data
    i = rng.choice(rec_lines)
    parts = lines[i].split(b"\t")
    if len(parts) >= 5:
        parts[4] = rng.choice([b"1e400", b"inf", b"nan", b"0x1p999", b"--3", b"1" * 400])
        lines[i] = b"\t".join(parts)
    return b"\n".join(lines)


def _text_long_line(data: bytes, rng: random.Random) -> bytes:
    """Append one pathologically long line."""
    n = rng.choice((1024, 65_536, 2 * 1024 * 1024))
    return data + b"\nPOSIX\t0\t1\tPOSIX_OPENS\t1\t/" + b"A" * n + b"\n"


def _drop_header(data: bytes, rng: random.Random) -> bytes:
    """Delete a whole leading region (headers, magic, job struct)."""
    if len(data) < 4:
        return b""
    return data[rng.randrange(1, max(2, len(data) // 2)) :]


def _record_flood(data: bytes, rng: random.Random) -> bytes:
    """Duplicate the tail of the payload many times: oversized-but-
    plausible record sections for every format."""
    tail = data[len(data) // 2 :]
    return data + tail * rng.randint(2, 20)


#: name → mutation callable.  Order is part of the deterministic
#: schedule; append new mutations at the end.
MUTATIONS: dict[str, Callable[[bytes, random.Random], bytes]] = {
    "byte_flip": _byte_flip,
    "truncate": _truncate,
    "extend": _extend,
    "duplicate_section": _duplicate_section,
    "reorder_sections": _reorder_sections,
    "zero_fill": _zero_fill,
    "splice": _splice,
    "lie_string_len": _lie_binary_string_len,
    "lie_counts": _lie_binary_counts,
    "depth_bomb": _json_depth_bomb,
    "value_bomb": _json_value_bomb,
    "counter_overflow": _text_counter_overflow,
    "long_line": _text_long_line,
    "drop_header": _drop_header,
    "record_flood": _record_flood,
}

#: Structural mutations only meaningful for one format; the generic
#: ones run everywhere.
_FORMAT_ONLY = {
    "lie_string_len": "binary",
    "lie_counts": "binary",
    "depth_bomb": "json",
    "value_bomb": "json",
    "counter_overflow": "text",
    "long_line": "text",
}


@dataclass(slots=True, frozen=True)
class FuzzCase:
    """One mutated payload plus its complete reproduction recipe."""

    fmt: str
    mutation: str
    seed: int
    data: bytes

    @property
    def label(self) -> str:
        return f"{self.fmt}/{self.mutation}#{self.seed}"


def mutations_for(fmt: str) -> list[str]:
    """Mutation schedule for one format (generic + its structural tier)."""
    return [
        name
        for name in MUTATIONS
        if _FORMAT_ONLY.get(name, fmt) == fmt
    ]


def generate_cases(fmt: str, n_cases: int, seed: int) -> Iterator[FuzzCase]:
    """Yield ``n_cases`` deterministic mutated payloads for ``fmt``.

    Case ``i`` applies mutation ``schedule[i % len(schedule)]`` with a
    :class:`random.Random` seeded by ``(seed, fmt, i)`` to a seed
    payload chosen by the same stream — fully reproducible from the
    triple alone.  Roughly one case in eight stacks a second mutation
    on top, reaching states single mutations cannot.
    """
    payloads = seed_payloads(fmt, seed)
    schedule = mutations_for(fmt)
    for i in range(n_cases):
        rng = random.Random(f"{seed}:{fmt}:{i}")
        name = schedule[i % len(schedule)]
        base = payloads[rng.randrange(len(payloads))]
        data = MUTATIONS[name](base, rng)
        if rng.random() < 0.125:
            second = rng.choice(schedule)
            data = MUTATIONS[second](data, rng)
            name = f"{name}+{second}"
        yield FuzzCase(fmt=fmt, mutation=name, seed=i, data=data)


def rebuild_case(fmt: str, seed: int, case_index: int) -> FuzzCase:
    """Regenerate one case from its reproduction triple."""
    for case in generate_cases(fmt, case_index + 1, seed):
        pass
    return case

