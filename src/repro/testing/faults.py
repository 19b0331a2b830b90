"""Deterministic fault injection: the chaos harness.

The resilient execution layer claims to survive worker crashes, hangs,
and transient errors; this module makes those failures *injectable on a
seeded schedule* so the claim is testable — in unit tests, in CI, and
end-to-end from the CLI (``mosaic report --chaos SEED``).

A :class:`ChaosInjector` wraps the worker function shipped to the
process pool.  For each item it derives a stable key per trace the item
carries (:func:`member_keys` — ``trace.meta.job_id`` for traces, each
ref of a stream unit, each row of a store slice), decides each key's
fate either from explicit key sets (tests) or from a seeded hash of the
key (fleet-scale chaos), and gives the item the gravest of its members'
fates, so a unit holding a targeted trace fails.  The pipeline then
runs a failed unit's traces one per unit, and only the targeted one
meets its fault again:

* **crash** — ``os._exit(...)``: the worker dies exactly like an OOM
  kill or segfault, without unwinding or pickling anything back;
* **hang** — sleeps far past any sane deadline, exercising the
  timeout/recycle path;
* **flaky** — raises ``OSError`` on the item's first execution and
  succeeds on retry.  First-ness must survive the process boundary
  (the retry lands in a fresh worker), so it is tracked with marker
  files under ``state_dir``.

Everything is deterministic: the same seed, keys, and ``state_dir``
produce the same fault schedule, which is what lets a killed chaos run
be resumed and compared byte-for-byte against an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "ChaosInjector",
    "item_key",
    "member_keys",
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_FLAKY",
]

FAULT_CRASH = "crash"
FAULT_HANG = "hang"
FAULT_FLAKY = "flaky"
FAULT_NONE = "none"


def item_key(item: Any) -> str:
    """Stable identity of one work item across processes and runs.

    Traces (``meta.job_id``) and selected refs (``job_id``) key by job
    id; scalars key by value; a unit of work keys by its members
    (:func:`member_keys`), joined by ``+``; everything else falls back
    to a repr digest (stable for value-like objects).
    """
    return "+".join(member_keys(item))


def member_keys(item: Any) -> list[str]:
    """The key of each trace one work item carries: a store slice (a
    ``rows`` tuple) keys each row as ``row:N``, a list (a stream unit's
    selected refs) each of its entries, and any other item is one
    member."""
    rows = getattr(item, "rows", None)
    if isinstance(rows, tuple):
        return [f"row:{row}" for row in rows]
    if isinstance(item, list):
        return [item_key(member) for member in item]
    job_id = getattr(getattr(item, "meta", item), "job_id", None)
    if job_id is not None:
        return [f"job:{job_id}"]
    if isinstance(item, (int, str)):
        return [f"val:{item}"]
    return ["repr:" + hashlib.sha256(repr(item).encode()).hexdigest()[:16]]


def _roll(seed: int, key: str) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, key)."""
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(slots=True, frozen=True)
class ChaosInjector:
    """Picklable worker-function wrapper that injects scheduled faults.

    Explicit key sets take precedence; when an item's key is in none of
    them, the seeded rates decide (``crash_rate`` band first, then
    ``hang_rate``, then ``flaky_rate``).  All rates 0 and all sets empty
    → a transparent wrapper.
    """

    inner: Callable[[Any], Any]
    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    flaky_rate: float = 0.0
    crash_keys: frozenset[str] = frozenset()
    hang_keys: frozenset[str] = frozenset()
    flaky_keys: frozenset[str] = frozenset()
    #: How long a hung item sleeps; keep well above the task deadline.
    hang_seconds: float = 3600.0
    #: Directory for flaky first-execution markers.  Empty → flaky
    #: faults never recover (every execution raises).
    state_dir: str = ""
    #: Worker exit status for crash faults.
    exit_code: int = 23

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "flaky_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.crash_rate + self.hang_rate + self.flaky_rate > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    # ------------------------------------------------------------------
    def fault_for(self, key: str) -> str:
        """The scheduled fate of one item key (deterministic)."""
        if key in self.crash_keys:
            return FAULT_CRASH
        if key in self.hang_keys:
            return FAULT_HANG
        if key in self.flaky_keys:
            return FAULT_FLAKY
        u = _roll(self.seed, key)
        if u < self.crash_rate:
            return FAULT_CRASH
        if u < self.crash_rate + self.hang_rate:
            return FAULT_HANG
        if u < self.crash_rate + self.hang_rate + self.flaky_rate:
            return FAULT_FLAKY
        return FAULT_NONE

    def _flaky_marker(self, key: str) -> str:
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return os.path.join(self.state_dir, f"flaky-{digest}")

    def __call__(self, item: Any) -> Any:
        fates = {key: self.fault_for(key) for key in member_keys(item)}
        if FAULT_CRASH in fates.values():
            # Simulate an OOM kill/segfault: no unwinding, no goodbye.
            os._exit(self.exit_code)
        if FAULT_HANG in fates.values():
            time.sleep(self.hang_seconds)
        flaky = [key for key, fate in fates.items() if fate == FAULT_FLAKY]
        if flaky and not self.state_dir:
            raise OSError(f"injected transient fault for {flaky[0]}")
        fresh = [key for key in flaky if not os.path.exists(self._flaky_marker(key))]
        for key in fresh:
            with open(self._flaky_marker(key), "w", encoding="utf-8") as fh:
                fh.write(key + "\n")
        if fresh:
            raise OSError(f"injected transient fault for {fresh[0]}")
        return self.inner(item)
