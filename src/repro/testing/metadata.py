"""Event-expansion oracle for the metadata request rate (§III-B3c).

The runtime counts each bin's metadata requests in closed form
(:func:`repro.kernels.batched.bin_events_segmented`).  This module keeps
the literal reading of the attribution model as the test oracle: expand
every record into its (time, request-count) events, sort them, and
``bincount`` them into fixed-width bins.  A record with ``k`` opens
expands to ``2k`` events, so this is slow on metadata-heavy traces and
lives here, not in the runtime.
"""

from __future__ import annotations

import numpy as np

from ..darshan.trace import Trace

__all__ = ["bin_events", "metadata_events", "oracle_rate"]


def metadata_events(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct a metadata-request event stream.

    Returns ``(times, counts)`` where ``counts[i]`` requests are
    attributed to time ``times[i]`` (seconds relative to job start).

    Attribution model (documented substitution for the missing DXT
    data, following §III-B3c): OPEN and SEEK requests are co-located;
    a record with one open places opens+seeks at ``open_start`` and
    closes at ``close_end``; a record with ``n > 1`` opens spreads its
    open/seek (resp. close) requests uniformly over the record's
    metadata window, which is how a repeatedly-reopened file actually
    loads the metadata server.
    """
    times: list[float] = []
    counts: list[float] = []
    for r in trace.records:
        if r.metadata_ops <= 0:
            continue
        t0 = r.open_start if r.open_start >= 0 else max(r.read_start, 0.0)
        t1 = r.close_end if r.close_end >= 0 else t0
        if t1 < t0:
            t0, t1 = t1, t0
        n_open = r.opens + r.seeks
        n_close = r.closes
        if r.opens <= 1 or t1 <= t0:
            if n_open:
                times.append(t0)
                counts.append(float(n_open))
            if n_close:
                times.append(t1)
                counts.append(float(n_close))
        else:
            k = r.opens
            grid = np.linspace(t0, t1, k, endpoint=False)
            per_open = n_open / k
            per_close = n_close / k
            span = (t1 - t0) / k
            times.extend(grid.tolist())
            counts.extend([per_open] * k)
            times.extend((grid + span * 0.9).tolist())
            counts.extend([per_close] * k)
    if not times:
        z = np.empty(0, dtype=np.float64)
        return z, z.copy()
    t = np.asarray(times, dtype=np.float64)
    c = np.asarray(counts, dtype=np.float64)
    order = np.argsort(t, kind="stable")
    return t[order], c[order]


def bin_events(
    times: np.ndarray, counts: np.ndarray, run_time: float, bin_width: float = 1.0
) -> np.ndarray:
    """Bin a (time, count) event stream into fixed-width bins.

    Event ``t`` lands in bin ``min(int(t / bin_width), n_bins - 1)``
    (negative times in bin 0), with ``n_bins = ceil(run_time /
    bin_width)`` (min 1); counts sum in event order.
    """
    if run_time <= 0:
        raise ValueError("run_time must be positive")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    n_bins = max(1, int(np.ceil(run_time / bin_width)))
    if len(times) == 0:
        return np.zeros(n_bins, dtype=np.float64)
    idx = np.clip((np.asarray(times) / bin_width).astype(np.int64), 0, n_bins - 1)
    return np.bincount(idx, weights=np.asarray(counts, dtype=np.float64), minlength=n_bins)


def oracle_rate(trace: Trace, bin_width: float) -> np.ndarray:
    """The oracle twin of :func:`repro.core.metadata.metadata_rate`."""
    times, counts = metadata_events(trace)
    run_time = max(trace.meta.run_time, bin_width)
    return bin_events(times, counts, run_time, bin_width) / bin_width
