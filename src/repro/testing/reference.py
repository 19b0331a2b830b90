"""Pure-Python reference kernels — the differential-testing oracle.

Every function here is the *specification* of one hot per-trace kernel:
a deliberately plain, per-element Python implementation whose behaviour
is easy to audit against the paper (§III-B merging rules, §III-B3a
periodicity).  The runtime kernels of :mod:`repro.kernels` must agree
with these to numerical tolerance on every input the adversarial
generators in :mod:`repro.testing.differential` produce — that
equivalence, not review alone, is what lets the NumPy kernels run.

:data:`REFERENCE` bundles these functions as a
:class:`~repro.kernels.KernelBackend`, and :func:`reference_kernels`
makes :func:`repro.kernels.get_backend` return it for the duration of a
``with`` block, so a test can run any pipeline layer, or the whole
pipeline, on the oracle.  The pipeline never imports this module.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from ..darshan.tolerance import TIME_TOLERANCE_S
from ..kernels import KernelBackend
from ..kernels import backend as _backend

__all__ = [
    "REFERENCE",
    "reference_kernels",
    "neighbor_pass",
    "overlap_groups",
    "coalesce_groups",
    "segment",
    "shift_step",
    "acf_peak_scan",
    "dft_comb_scores",
    "bin_activity",
]


def neighbor_pass(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    abs_gap: float,
    op_fraction: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """One greedy left-to-right neighbor-merge scan (§III-B2b).

    A gap is negligible when it is at most ``abs_gap`` (0.1% of the
    runtime) or at most ``op_fraction`` (1%) of the duration of *either*
    nearby operation — the growing current operation or the incoming
    one.  The paper says "the nearby merged operation" without picking a
    side; testing only the left operation would let a long checkpoint
    trailing a short op never absorb it.
    """
    out_s: list[float] = [float(starts[0])]
    out_e: list[float] = [float(ends[0])]
    out_v: list[float] = [float(volumes[0])]
    changed = False
    for i in range(1, len(starts)):
        gap = float(starts[i]) - out_e[-1]
        cur_duration = out_e[-1] - out_s[-1]
        next_duration = float(ends[i]) - float(starts[i])
        if (
            gap <= abs_gap
            or gap <= op_fraction * cur_duration
            or gap <= op_fraction * next_duration
        ):
            out_e[-1] = max(out_e[-1], float(ends[i]))
            out_v[-1] += float(volumes[i])
            changed = True
        else:
            out_s.append(float(starts[i]))
            out_e.append(float(ends[i]))
            out_v.append(float(volumes[i]))
    return (
        np.asarray(out_s),
        np.asarray(out_e),
        np.asarray(out_v),
        changed,
    )


def overlap_groups(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Transitive-overlap group ids for sorted intervals (§III-B2a).

    Touching is judged at clock resolution
    (:data:`~repro.darshan.tolerance.TIME_TOLERANCE_S`).
    """
    n = len(starts)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    group = 0
    running_end = float(ends[0])
    out[0] = 0
    for i in range(1, n):
        if float(starts[i]) > running_end + TIME_TOLERANCE_S:
            group += 1
        running_end = max(running_end, float(ends[i]))
        out[i] = group
    return out


def coalesce_groups(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    groups: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse each overlap group into min(start)/max(end)/sum(volume)."""
    if len(starts) == 0:
        z = np.empty(0, dtype=np.float64)
        return z, z.copy(), z.copy()
    n_groups = int(groups[-1]) + 1
    out_s = [np.inf] * n_groups
    out_e = [-np.inf] * n_groups
    out_v = [0.0] * n_groups
    for i in range(len(starts)):
        g = int(groups[i])
        out_s[g] = min(out_s[g], float(starts[i]))
        out_e[g] = max(out_e[g], float(ends[i]))
        out_v[g] += float(volumes[i])
    return np.asarray(out_s), np.asarray(out_e), np.asarray(out_v)


def segment(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    run_time: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut a merged stream into segments (§III-B3a).

    Returns ``(starts, durations, volumes, busy)``; the final segment is
    closed by the end of the execution, never before the last operation
    finished.
    """
    n = len(starts)
    if n == 0:
        z = np.empty(0, dtype=np.float64)
        return z, z.copy(), z.copy(), z.copy()
    durations = np.empty(n, dtype=np.float64)
    busy = np.empty(n, dtype=np.float64)
    for i in range(n):
        if i + 1 < n:
            seg_end = float(starts[i + 1])
        else:
            seg_end = max(run_time, float(ends[-1]))
        durations[i] = seg_end - float(starts[i])
        busy[i] = min(float(ends[i]) - float(starts[i]), durations[i])
    return starts.copy(), durations, volumes.copy(), busy


def shift_step(
    seeds: np.ndarray, X: np.ndarray, bandwidth: float, kernel: str
) -> np.ndarray:
    """One Mean Shift update of every seed toward its local mean.

    Flat kernel: the mean of the points inside the bandwidth ball;
    Gaussian: the exp-weighted mean.  A seed with an empty window stays
    put.
    """
    n_seeds, dim = seeds.shape
    out = np.empty_like(seeds)
    for i in range(n_seeds):
        total = 0.0
        acc = [0.0] * dim
        for j in range(len(X)):
            dist = 0.0
            for k in range(dim):
                diff = float(seeds[i, k]) - float(X[j, k])
                dist += diff * diff
            dist = dist**0.5
            if kernel == "flat":
                w = 1.0 if dist <= bandwidth else 0.0
            elif kernel == "gaussian":
                w = float(np.exp(-0.5 * (dist / bandwidth) ** 2))
            else:
                raise ValueError(f"unknown kernel: {kernel!r}")
            if w:
                total += w
                for k in range(dim):
                    acc[k] += w * float(X[j, k])
        if total > 0:
            for k in range(dim):
                out[i, k] = acc[k] / total
        else:
            out[i] = seeds[i]
    return out


def acf_peak_scan(
    acf: np.ndarray, max_lag: int, min_strength: float
) -> int:
    """First qualifying ACF peak in ``(0, max_lag)``; ``-1`` if none.

    A lag qualifies when it is a *strict* local maximum (rises above the
    left neighbour and falls to the right) with value >= min_strength.
    A plateau test (``>=`` on the left) would latch onto the monotone
    decay shoulder at lag 1 of any positively-autocorrelated signal.
    """
    n = len(acf)
    for lag in range(1, max_lag):
        left = float(acf[lag - 1])
        right = float(acf[lag + 1]) if lag + 1 < n else -np.inf
        if acf[lag] > left and acf[lag] > right and acf[lag] >= min_strength:
            return lag
    return -1


def dft_comb_scores(
    power: np.ndarray, candidates: np.ndarray, max_slots: int = 12
) -> tuple[np.ndarray, np.ndarray]:
    """Comb-minus-anticomb score per candidate fundamental bin position.

    For each (possibly fractional) candidate ``kf``, sum the spectral
    power in a ±1-bin window around its harmonics ``j*kf`` (the comb)
    minus the windows halfway between (the anti-comb), over at most
    ``max_slots`` low-order harmonics.  Returns ``(net/slots, net)``
    arrays; candidates with no harmonic inside the spectrum score 0.
    """
    n = len(power)

    def slot_power(position: float) -> float:
        j = int(round(position))
        lo, hi = max(j - 1, 0), min(j + 2, n)
        return float(power[lo:hi].max()) if hi > lo else 0.0

    per_slot = np.zeros(len(candidates), dtype=np.float64)
    net_arr = np.zeros(len(candidates), dtype=np.float64)
    for c, kf in enumerate(candidates):
        comb = 0.0
        anti = 0.0
        slots = 0
        j = 1
        while j * kf < n and slots < max_slots:
            comb += slot_power(j * kf)
            anti += slot_power((j + 0.5) * kf)
            slots += 1
            j += 1
        if slots == 0:
            continue
        net = comb - anti
        per_slot[c] = net / slots
        net_arr[c] = net
    return per_slot, net_arr


def bin_activity(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    run_time: float,
    n_bins: int,
) -> np.ndarray:
    """Spread operation volumes uniformly over evenly-spaced bins.

    Inputs must already be clipped to ``[0, run_time]``.  Instantaneous
    operations drop their whole volume into the bin containing their
    start; boundary bins receive pro-rata shares under the uniform-rate
    assumption.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    width = run_time / n_bins
    values = np.zeros(n_bins, dtype=np.float64)
    for s, e, v in zip(starts, ends, volumes):
        if v <= 0:
            continue
        if e <= s:  # instantaneous burst
            idx = min(int(s / width), n_bins - 1)
            values[idx] += v
            continue
        b0 = int(s / width)
        b1 = min(int(np.ceil(e / width)), n_bins)
        window = e - s
        rate = v / window
        for b in range(b0, b1):
            lo = max(s, b * width)
            hi = min(e, (b + 1) * width)
            if hi > lo:
                values[min(b, n_bins - 1)] += rate * (hi - lo)
    return values


#: The oracle bundle.
REFERENCE = KernelBackend(
    name="reference",
    neighbor_pass=neighbor_pass,
    overlap_groups=overlap_groups,
    coalesce_groups=coalesce_groups,
    segment=segment,
    shift_step=shift_step,
    acf_peak_scan=acf_peak_scan,
    dft_comb_scores=dft_comb_scores,
    bin_activity=bin_activity,
)


@contextmanager
def reference_kernels() -> Iterator[KernelBackend]:
    """Run every kernel lookup inside the block on :data:`REFERENCE`.

    Process-wide and not thread-safe: a test-only swap of the bundle
    :func:`repro.kernels.get_backend` returns, restored on exit.
    """
    previous = _backend._active
    _backend._active = REFERENCE
    try:
        yield REFERENCE
    finally:
        _backend._active = previous
