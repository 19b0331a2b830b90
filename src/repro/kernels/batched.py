"""Segmented kernels: the merge, segmentation and metadata-rate passes.

Every kernel here processes the flat operation table of many traces in
one NumPy dispatch, with an ``offsets`` array marking trace boundaries
(``offsets[k]:offsets[k+1]`` is trace ``k``'s slab — the zero-copy
layout of :mod:`repro.columnar`).  The store route batches a whole slice
per call; the per-trace route calls the same kernels with one segment
through the wrappers at the bottom of this module, which the runtime
:class:`~repro.kernels.backend.KernelBackend` binds.  Both routes
therefore merge and segment through the same code.

Segment boundaries are hard walls: no merge, overlap group, or running
maximum ever crosses one.  The differential oracle
(:mod:`repro.testing.differential`) holds every kernel equal to the
pure-Python specification of :mod:`repro.testing.reference`, per trace
and over adversarial batches.

The neighbor-merge pass deserves a note: the greedy specification grows
the current operation as it scans, so a merge can enable the next merge
within the same pass.  The segmented pass instead chain-merges every run
of adjacent operations whose *pre-pass* gaps and durations satisfy the
rule, then the caller iterates to a fixpoint.  The two fixpoints
coincide because merging is monotone — fusing two operations only ever
shrinks the gap to the next operation and grows the durations the rule
tests against, so an enabled merge can never be disabled by another
merge (Newman's lemma gives confluence).  The oracle checks exactly
this equivalence.

Exactness note: the segmented running maximum uses a masked
Hillis–Steele doubling scan (``log2(max segment length)`` vector passes)
instead of adding per-segment offsets to a global ``maximum.accumulate``
— the offset trick loses float precision at corpus scale and the merge
rules compare times at microsecond tolerance.
"""

from __future__ import annotations

import numpy as np

from ..darshan.tolerance import TIME_TOLERANCE_S
from . import vectorized

__all__ = [
    "neighbor_pass",
    "overlap_groups",
    "segment",
    "neighbor_pass_segmented",
    "overlap_groups_segmented",
    "segment_segmented",
    "bin_events_segmented",
    "segment_ids",
    "group_offsets",
]

def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Per-element segment id for an offsets array (``len == offsets[-1]``)."""
    lengths = np.diff(offsets)
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def _positions_in_segment(offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """0-based rank of each element within its segment."""
    n = int(offsets[-1])
    return np.arange(n, dtype=np.int64) - offsets[ids]


def _segmented_cummax(values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Running maximum that restarts at every segment boundary.

    Masked Hillis–Steele doubling: after pass ``d`` element ``i`` holds
    the max over the last ``2d`` elements of its own segment, so
    ``ceil(log2(longest segment))`` passes reach the segment start.
    Exact — only ``maximum`` is applied, never arithmetic on the values.
    """
    out = values.astype(np.float64, copy=True)
    n = len(out)
    if n == 0:
        return out
    longest = int(pos.max()) + 1
    d = 1
    while d < longest:
        can = pos[d:] >= d
        np.maximum(
            out[d:], np.where(can, out[:-d], -np.inf), out=out[d:]
        )
        d <<= 1
    return out


def group_offsets(groups: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Offsets of the coalesced output given global group ids.

    Group ids are contiguous and every segment starts a new group, so a
    segment's output count is ``last_group - first_group + 1``.
    """
    o0 = offsets[:-1]
    o1 = offsets[1:]
    nonempty = o1 > o0
    first = np.where(nonempty, o0, 0)
    last = np.where(nonempty, o1 - 1, 0)
    counts = np.where(nonempty, groups[last] - groups[first] + 1, 0)
    out = np.empty(len(offsets), dtype=np.int64)
    out[0] = 0
    np.cumsum(counts, out=out[1:])
    return out


# ----------------------------------------------------------------------
# segmented kernels


def neighbor_pass_segmented(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    offsets: np.ndarray,
    abs_gaps: np.ndarray,
    op_fraction: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """One chain-merge neighbor pass over every segment at once.

    ``abs_gaps`` carries one absolute gap threshold per segment (the
    per-trace ``runtime_fraction * run_time``).  Returns the merged
    columns, the new offsets, and whether anything merged anywhere.
    """
    n = len(starts)
    if n == 0:
        return starts, ends, volumes, offsets, False
    ids = segment_ids(offsets)
    gap = starts[1:] - ends[:-1]
    durations = ends - starts
    mergeable = (
        (gap <= abs_gaps[ids[1:]])
        | (gap <= op_fraction * durations[:-1])
        | (gap <= op_fraction * durations[1:])
    )
    mergeable &= ids[1:] == ids[:-1]
    if not mergeable.any():
        return starts, ends, volumes, offsets, False
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = ~mergeable
    groups = np.cumsum(new_group, dtype=np.int64) - 1
    out_s, out_e, out_v = vectorized.coalesce_groups(
        starts, ends, volumes, groups
    )
    return out_s, out_e, out_v, group_offsets(groups, offsets), True


def overlap_groups_segmented(
    starts: np.ndarray, ends: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Transitive-overlap group ids, never crossing a segment boundary.

    Ids are global and contiguous; feed them to ``coalesce_groups`` and
    :func:`group_offsets` to coalesce a whole batch in one dispatch.
    """
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ids = segment_ids(offsets)
    pos = _positions_in_segment(offsets, ids)
    running_end = _segmented_cummax(ends, pos)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = starts[1:] > running_end[:-1] + TIME_TOLERANCE_S
    new_group[pos == 0] = True
    return np.cumsum(new_group, dtype=np.int64) - 1


def segment_segmented(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    offsets: np.ndarray,
    run_times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut every trace's merged stream into segments in one dispatch.

    Output rows align 1:1 with input operations (``offsets`` unchanged);
    the final operation of each trace extends to
    ``max(run_time, its end)`` exactly like the per-trace kernel.
    """
    n = len(starts)
    if n == 0:
        z = np.empty(0, dtype=np.float64)
        return z, z.copy(), z.copy(), z.copy()
    next_start = np.empty(n, dtype=np.float64)
    next_start[:-1] = starts[1:]
    next_start[-1] = 0.0  # overwritten below: the last row ends a segment
    o0, o1 = offsets[:-1], offsets[1:]
    nonempty = o1 > o0
    last = o1[nonempty] - 1
    next_start[last] = np.maximum(run_times[nonempty], ends[last])
    durations = next_start - starts
    busy = np.minimum(ends - starts, durations)
    return starts.copy(), durations, volumes.copy(), busy


def _event_bins(
    times: np.ndarray, bin_width: float, last: np.ndarray
) -> np.ndarray:
    """Bin of each event time: ``min(int(t / w), last)``, negatives to 0."""
    idx = (times / bin_width).astype(np.int64)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, last, out=idx)
    return idx


def _progression(
    i: np.ndarray, t0: np.ndarray, step: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """Event ``i`` of a spread record's open or close progression.

    ``fl(fl(fl(i * step) + t0) + offset)``: the expansion's
    ``np.linspace(t0, t1, k, endpoint=False)[i] + offset`` operation for
    operation, so every bit matches (``offset`` is 0 for opens and
    ``fl(0.9 * step)`` for closes).
    """
    times = i.astype(np.float64)
    times *= step
    times += t0
    times += offset
    return times


def _first_past_edge(
    edge: np.ndarray,
    k: np.ndarray,
    t0: np.ndarray,
    step: np.ndarray,
    offset: np.ndarray,
    bin_width: float,
) -> np.ndarray:
    """First event index of each progression whose bin is ``>= edge``.

    The caller guarantees ``1 <= edge <= last bin``, event 0 below the
    edge and event ``k - 1`` at or past it, so the answer is bracketed in
    ``(0, k - 1]``, and "bin >= edge" is simply ``t / w >= edge``.  A
    ``ceil`` estimate of the crossing is checked by evaluating the exact
    event expression on both sides of it.  The few estimates rounding
    puts off (a step below the ulp of ``t0``) try the next index over,
    then bisect on the same predicate.
    """

    def past(i: np.ndarray, sel: np.ndarray | slice = slice(None)) -> np.ndarray:
        times = _progression(i, t0[sel], step[sel], offset[sel])
        times /= bin_width
        return times >= edge[sel]

    guess = np.ceil((edge * bin_width - t0 - offset) / step)
    np.maximum(guess, 1.0, out=guess)
    np.minimum(guess, k - 1, out=guess)
    i = guess.astype(np.int64)
    at, below = past(i), past(i - 1)
    miss = np.flatnonzero(~at | below)
    # bracket the misses: past(lo) is false, past(hi) true
    i_m, at_m, below_m = i[miss], at[miss], below[miss]
    lo = np.where(below_m, 0, i_m)
    hi = np.where(below_m, i_m - 1, k[miss] - 1)
    probe = np.where(below_m, hi - 1, lo + 1)  # the next index over
    sel = np.arange(len(miss))
    while len(sel):
        p = past(probe, miss[sel])
        hi[sel[p]] = probe[p]
        lo[sel[~p]] = probe[~p]
        sel = sel[hi[sel] - lo[sel] > 1]
        probe = (lo[sel] + hi[sel]) // 2
    i[miss] = hi
    return i


def bin_events_segmented(
    t0: np.ndarray,
    t1: np.ndarray,
    opens: np.ndarray,
    n_open: np.ndarray,
    n_close: np.ndarray,
    offsets: np.ndarray,
    run_times: np.ndarray,
    bin_width: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin metadata request counts of many traces, in closed form.

    Record ``r`` of trace ``s`` (``offsets[s] <= r < offsets[s + 1]``)
    carries ``n_open[r]`` OPEN+SEEK and ``n_close[r]`` CLOSE requests
    over its metadata window ``[t0[r], t1[r]]``
    (:func:`repro.darshan.trace.metadata_windows`).  Trace ``s`` owns
    ``ceil(run_times[s] / bin_width)`` bins (min 1) of the flat output.
    Returns ``(values, bin_offsets)``.

    The §III-B3c attribution model: a record with at most one open, or
    an empty window, puts its opens at ``t0`` and its closes at ``t1``.
    A record with ``k = opens > 1`` spreads them: open ``i < k`` sits at
    ``fl(i * step + t0)`` with ``step = (t1 - t0) / k``, close ``i`` at
    ``fl(open_i + fl(0.9 * step))``, each carrying ``n / k`` requests.
    These events are never materialized.  The bin index
    ``min(int(t / w), nb - 1)`` is monotone in ``i``, so each bin's
    event count is the gap between the first indices past consecutive
    bin edges, found from a ``ceil`` estimate corrected by evaluating the
    event's own float expression.  Per progression the kernel
    enumerates whichever is fewer, its events (each adding ``n / k``
    requests) or its spanned bins (each adding ``count * n / k``):
    O(records + sum of min(k, bins spanned)), no sort.

    Per-bin event counts equal the expansion's exactly.  When every
    ``n / k`` is integral the sums are exact and the values bitwise
    equal to binning the expanded events; otherwise they differ from
    the expansion's event-order sum by rounding only
    (docs/ALGORITHMS.md).  Domain:
    event times NaN or below ``2**63 * bin_width``, where the int64 bin
    index is defined.  (``np.linspace`` switches formula for a step that
    underflows to zero, which needs ``t1 < 1e-288`` s; any bin width
    above that puts those events in bin 0 either way.)
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    run_times = np.asarray(run_times, dtype=np.float64)
    if np.any(run_times <= 0):
        raise ValueError("run_time must be positive")
    n_bins = np.maximum(
        np.ceil(run_times / bin_width).astype(np.int64), 1
    )
    bin_offsets = np.empty(len(n_bins) + 1, dtype=np.int64)
    bin_offsets[0] = 0
    np.cumsum(n_bins, out=bin_offsets[1:])

    t0 = np.asarray(t0, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    opens = np.asarray(opens, dtype=np.int64)
    n_open = np.asarray(n_open, dtype=np.int64)
    n_close = np.asarray(n_close, dtype=np.int64)
    active = (n_open + n_close) > 0
    # `opens <= 1 or t1 <= t0` inverted — NOT `t1 > t0`, which would
    # send NaN windows to the single-window branch the model spreads
    spread = active & (opens > 1) & ~(t1 <= t0)
    k = np.where(spread, opens, 1)
    step = np.where(spread, (t1 - t0) / k, 0.0)

    # One progression per (record, kind) with requests: the opens from
    # t0, the closes 0.9 step after them.  A single-window record is the
    # k = 1 case, its closes starting at t1 instead.
    n = np.concatenate((n_open, n_close))
    pick = np.flatnonzero(np.concatenate((active, active)) & (n != 0))
    rec = pick % len(t0)
    n = n[pick].astype(np.float64)
    k = k[rec]
    step = step[rec]
    origin = np.concatenate((t0, np.where(spread, t0, t1)))[pick]
    prog = (origin, step, np.where(pick < len(t0), 0.0, step * 0.9))
    seg = segment_ids(np.asarray(offsets, dtype=np.int64))[rec]
    last = n_bins[seg] - 1
    base = bin_offsets[seg]

    # Enumerate whichever is fewer per progression: its k events, or
    # the bins its window spans (the window is about k steps wide).
    # The choice only sets the cost; both enumerations are exact.
    by_event = k <= k * step / bin_width + 1
    bins: list[np.ndarray] = []
    requests: list[np.ndarray] = []

    s = np.flatnonzero(~by_event)
    if len(s):
        # Bins are monotone in the event index, so a progression's
        # events per bin are the gaps between the first indices past
        # each bin edge.  One row per spanned bin: row j > 0 starts at
        # its edge's first index, and the next row's start (or k, on
        # the last bin) closes it.
        prog_s = tuple(x[s] for x in prog)
        k_s, last_s = k[s], last[s]
        first = _event_bins(_progression(np.zeros_like(k_s), *prog_s), bin_width, last_s)
        final = _event_bins(_progression(k_s - 1, *prog_s), bin_width, last_s)
        span = final - first + 1
        row0 = np.cumsum(span) - span
        rows = np.arange(int(row0[-1] + span[-1]))
        bins.append(rows + np.repeat(base[s] + first - row0, span))
        inner = np.ones(len(rows), dtype=bool)
        inner[row0] = False
        n_edges = span - 1
        start = np.zeros(len(rows), dtype=np.int64)
        start[inner] = _first_past_edge(
            rows[inner] + np.repeat(first - row0, n_edges),
            *(np.repeat(x[s], n_edges) for x in (k, *prog)),
            bin_width,
        )
        stop = np.empty_like(start)
        stop[:-1] = start[1:]
        stop[row0 + span - 1] = k_s
        count = (stop - start).astype(np.float64)
        count *= np.repeat(n[s], span)
        count /= np.repeat(k_s, span)
        requests.append(count)

    e = np.flatnonzero(by_event)
    if len(e):
        # each event binned directly, carrying n / k requests
        ke = k[e]
        pid = np.repeat(e, ke)
        i = np.arange(len(pid)) - np.repeat(np.cumsum(ke) - ke, ke)
        times = _progression(i, *(x[pid] for x in prog))
        bins.append(_event_bins(times, bin_width, last[pid]) + base[pid])
        requests.append(np.repeat(n[e] / ke, ke))

    values = np.bincount(
        np.concatenate(bins or [np.empty(0, dtype=np.int64)]),
        weights=np.concatenate(requests or [np.empty(0)]),
        minlength=int(bin_offsets[-1]),
    )
    return values, bin_offsets


# ----------------------------------------------------------------------
# single-segment calls: the per-trace kernels of the runtime bundle

def _single_offsets(n: int) -> np.ndarray:
    return np.array([0, n], dtype=np.int64)


def neighbor_pass(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    abs_gap: float,
    op_fraction: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Single-segment wrapper of :func:`neighbor_pass_segmented`."""
    out_s, out_e, out_v, _, changed = neighbor_pass_segmented(
        starts,
        ends,
        volumes,
        _single_offsets(len(starts)),
        np.array([abs_gap], dtype=np.float64),
        op_fraction,
    )
    return out_s, out_e, out_v, changed


def overlap_groups(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Single-segment wrapper of :func:`overlap_groups_segmented`."""
    return overlap_groups_segmented(
        starts, ends, _single_offsets(len(starts))
    )


def segment(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    run_time: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Single-segment wrapper of :func:`segment_segmented`."""
    return segment_segmented(
        starts,
        ends,
        volumes,
        _single_offsets(len(starts)),
        np.array([run_time], dtype=np.float64),
    )
