"""Per-``Trace`` oracle for :func:`repro.darshan.repair.repair_rows`.

The runtime repairs a batch's record columns, each heuristic a mask.
This module keeps the literal per-record loop those masks are held to:
deep-copy the ``Trace``, fix each ``FileRecord`` one attribute at a
time, drop the records that cannot be trusted, and validate the result
with :func:`~repro.darshan.validate.validate_trace`.  It also keeps the
human-readable action log and the dropped-record count, which nothing
in the runtime reads.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..darshan.records import FileRecord
from ..darshan.repair import MAX_CLAMP_FACTOR
from ..darshan.trace import Trace
from ..darshan.validate import END_SLACK, validate_trace

__all__ = ["RepairOutcome", "repair_trace"]


@dataclass(slots=True)
class RepairOutcome:
    """Result of one repair attempt."""

    trace: Trace
    #: True when the repaired trace passes validation.
    repaired: bool
    #: Human-readable log of what was changed.
    actions: list[str] = field(default_factory=list)
    #: Number of records dropped as unrecoverable.
    n_dropped_records: int = 0


def _fix_record(rec: FileRecord, run_time: float, actions: list[str]) -> bool:
    """Repair one record in place; return False to drop it."""
    name = f"record {rec.file_id}/{rec.rank}"

    for label in ("opens", "closes", "seeks", "stats", "reads", "writes",
                  "bytes_read", "bytes_written"):
        if getattr(rec, label) < 0:
            actions.append(f"drop {name}: negative {label}")
            return False

    hi = run_time + END_SLACK
    for prefix, bytes_attr in (("read", "bytes_read"), ("write", "bytes_written")):
        lo_attr, hi_attr = f"{prefix}_start", f"{prefix}_end"
        lo, hi_ts = getattr(rec, lo_attr), getattr(rec, hi_attr)
        nbytes = getattr(rec, bytes_attr)
        present = lo >= 0.0 or hi_ts >= 0.0
        if nbytes > 0 and not present:
            actions.append(f"drop {name}: {prefix} bytes without window")
            return False
        if not present:
            continue
        if lo < 0.0 or hi_ts < 0.0:
            actions.append(f"drop {name}: half-open {prefix} window")
            return False
        if hi_ts < lo:
            setattr(rec, lo_attr, hi_ts)
            setattr(rec, hi_attr, lo)
            lo, hi_ts = hi_ts, lo
            actions.append(f"swap inverted {prefix} window of {name}")
        if hi_ts > hi:
            if hi_ts > MAX_CLAMP_FACTOR * max(run_time, 1.0):
                actions.append(f"drop {name}: {prefix} window far past job end")
                return False
            setattr(rec, hi_attr, run_time)
            setattr(rec, lo_attr, min(lo, run_time))
            actions.append(f"clamp {prefix} window of {name} to runtime")

    if rec.open_start >= 0.0 and rec.close_end >= 0.0:
        if rec.close_end < rec.open_start:
            rec.open_start, rec.close_end = rec.close_end, rec.open_start
            actions.append(f"swap inverted metadata window of {name}")
        last_activity = max(rec.read_end, rec.write_end)
        if last_activity >= 0.0 and rec.close_end < last_activity:
            # the paper's dealloc-before-end case: the data window proves
            # the file was still in use, so trust it
            rec.close_end = last_activity
            actions.append(f"extend close of {name} to activity end")
        if rec.close_end > hi:
            if rec.close_end > MAX_CLAMP_FACTOR * max(run_time, 1.0):
                actions.append(f"drop {name}: metadata window far past job end")
                return False
            rec.close_end = run_time
            rec.open_start = min(rec.open_start, run_time)
            actions.append(f"clamp metadata window of {name}")
    elif rec.opens > 0:
        anchor = max(rec.read_start, rec.write_start, 0.0)
        rec.open_start = anchor
        rec.close_end = max(rec.read_end, rec.write_end, anchor)
        actions.append(f"reconstruct metadata window of {name} from activity")
    return True


def repair_trace(trace: Trace) -> RepairOutcome:
    """Attempt to repair ``trace``; never mutates the input.

    Valid traces come back untouched with ``repaired=True`` and no
    actions.
    """
    if validate_trace(trace).valid:
        return RepairOutcome(trace=trace, repaired=True)

    run_time = trace.meta.run_time
    if run_time <= 0.0 or trace.meta.nprocs <= 0:
        return RepairOutcome(
            trace=trace,
            repaired=False,
            actions=["unrepairable: corrupt job header"],
        )

    fixed = copy.deepcopy(trace)
    actions: list[str] = []
    kept: list[FileRecord] = []
    dropped = 0
    for rec in fixed.records:
        if _fix_record(rec, run_time, actions):
            kept.append(rec)
        else:
            dropped += 1
    fixed.records = kept

    ok = validate_trace(fixed).valid
    if not ok:
        actions.append("residual violations after repair")
    return RepairOutcome(
        trace=fixed, repaired=ok, actions=actions, n_dropped_records=dropped
    )
