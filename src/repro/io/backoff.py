"""The one retry schedule: exponential backoff as a frozen value.

Storage syscalls (:mod:`repro.io.durable`), pool re-executions
(:mod:`repro.parallel`; a failed trace reload is one), and the HTTP client
(:mod:`repro.service.client`) all sleep ``base_s * 2**n`` before retry
``n`` (0-based), optionally capped and optionally jittered; only the
parameters differ.  Jitter is *deterministic* — a hash of ``(key,
n + 1)`` picks a factor in [0.5, 1.0) — so a retried run replays the
same schedule while distinct items still spread out.  Unjittered
schedules are exactly ``base_s * 2**n``, which the storage-chaos op
census relies on.

This module imports nothing else from :mod:`repro`, so every layer can
use it without an import cycle.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

__all__ = ["Backoff"]


def _jitter_fraction(key: int | str, attempt: int) -> float:
    """Deterministic pseudo-random fraction in [0, 1) for one retry."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(slots=True, frozen=True)
class Backoff:
    """Exponential retry schedule.

    ``attempts`` counts executions, the first one included (1 = never
    retry).  ``cap_s`` bounds any single delay (``inf`` = uncapped);
    ``jitter`` scales each delay by a deterministic factor in
    [0.5, 1.0) keyed by the caller's item key.
    """

    base_s: float = 0.05
    cap_s: float = math.inf
    attempts: int = 1
    jitter: bool = False

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError("backoff values must be >= 0")

    def backoff_s(self, retry: int, key: int | str = 0) -> float:
        """Seconds to sleep before retry ``retry`` (0-based)."""
        delay = min(self.cap_s, self.base_s * (2.0**retry))
        if not self.jitter:
            return delay
        return delay * (0.5 + 0.5 * _jitter_fraction(key, retry + 1))
