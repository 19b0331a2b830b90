"""Error types for the Darshan-equivalent trace substrate.

The reproduction keeps a dedicated exception hierarchy so that callers can
distinguish *corrupted input* (expected at scale: 32% of the Blue Waters
2019 dataset was evicted by MOSAIC's validity check) from *programming
errors* inside the pipeline.
"""

from __future__ import annotations


class DarshanError(Exception):
    """Base class for all trace-substrate errors."""


class TraceFormatError(DarshanError):
    """A serialized trace could not be decoded (bad magic, truncated
    payload, unsupported version, malformed JSON, ...)."""


class TraceValidationError(DarshanError):
    """A decoded trace violates a structural invariant.

    Carries the machine-readable list of violations so that the
    pre-processing funnel (Fig. 3 of the paper) can report eviction
    reasons.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations: list[str] = list(violations or [])


class TraceWriteError(DarshanError):
    """A trace could not be serialized (e.g. out-of-range counter)."""


class TraceReadError(DarshanError):
    """A trace payload could not be obtained from its source at all
    (I/O-level failure, as opposed to :class:`TraceFormatError`'s
    undecodable bytes).

    Classified *transient* by the resilient execution layer: a trace
    that scanned clean but fails on re-read is being disturbed by its
    environment (filesystem hiccup, concurrent rewrite), so the read is
    retried with backoff before the trace is given up on.
    """

