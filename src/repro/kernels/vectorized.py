"""NumPy kernels of the runtime bundle, one trace per call.

Concurrent-fusion coalescing, the Mean Shift step, the ACF and DFT peak
scans and activity binning run here (the merge and segmentation passes
are the segmented kernels of :mod:`repro.kernels.batched`).  Each is the
twin of the same-named pure-Python specification in
:mod:`repro.testing.reference`; the differential oracle
(:mod:`repro.testing.differential`) holds every pair equivalent on
thousands of seeded adversarial cases.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coalesce_groups",
    "shift_step",
    "acf_peak_scan",
    "dft_comb_scores",
    "bin_activity",
]


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
    out_s = np.full(n_groups, np.inf)
    out_e = np.full(n_groups, -np.inf)
    np.minimum.at(out_s, groups, starts)
    np.maximum.at(out_e, groups, ends)
    out_v = np.bincount(groups, weights=volumes, minlength=n_groups)
    return out_s, out_e, out_v


def shift_step(
    seeds: np.ndarray, X: np.ndarray, bandwidth: float, kernel: str
) -> np.ndarray:
    """One Mean Shift update of every seed, all seeds at once."""
    from scipy.spatial.distance import cdist

    d = cdist(seeds, X)
    if kernel == "flat":
        w = (d <= bandwidth).astype(np.float64)
    elif kernel == "gaussian":
        w = np.exp(-0.5 * (d / bandwidth) ** 2)
    else:
        raise ValueError(f"unknown kernel: {kernel!r}")
    totals = w.sum(axis=1, keepdims=True)
    # A seed with an empty window stays put (flat kernel, isolated point).
    safe = np.where(totals > 0, totals, 1.0)
    new = (w @ X) / safe
    return np.where(totals > 0, new, seeds)


def acf_peak_scan(
    acf: np.ndarray, max_lag: int, min_strength: float
) -> int:
    """First strict local ACF maximum in ``(0, max_lag)``; ``-1`` if none."""
    n = len(acf)
    if max_lag <= 1:
        return -1
    lags = np.arange(1, max_lag)
    center = acf[lags]
    left = acf[lags - 1]
    right = np.where(
        lags + 1 < n, acf[np.minimum(lags + 1, n - 1)], -np.inf
    )
    ok = (center > left) & (center > right) & (center >= min_strength)
    hits = np.flatnonzero(ok)
    return int(lags[hits[0]]) if len(hits) else -1


def dft_comb_scores(
    power: np.ndarray, candidates: np.ndarray, max_slots: int = 12
) -> tuple[np.ndarray, np.ndarray]:
    """Comb-minus-anticomb scores via three clipped gathers per slot set.

    The ±1-bin window max around each harmonic is the elementwise max of
    ``power`` at the clipped positions ``idx-1``, ``idx``, ``idx+1``, so
    the kernel costs O(candidates × slots) regardless of the spectrum
    length — precomputing a full window-max array would make the scan
    scale with ``len(power)`` and lose to the reference on long spectra.
    """
    n = len(power)
    n_cand = len(candidates)
    per_slot = np.zeros(n_cand, dtype=np.float64)
    net_arr = np.zeros(n_cand, dtype=np.float64)
    if n == 0 or n_cand == 0:
        return per_slot, net_arr

    def window_max(pos: np.ndarray) -> np.ndarray:
        idx = np.rint(pos).astype(np.int64)
        lo = np.clip(idx - 1, 0, n - 1)
        mid = np.minimum(idx, n - 1)
        hi = np.minimum(idx + 1, n - 1)
        vals = np.maximum(np.maximum(power[lo], power[mid]), power[hi])
        # idx > n means even the window's left edge is past the
        # spectrum: an empty slot scores zero.
        return np.where(idx <= n, vals, 0.0)

    j = np.arange(1, max_slots + 1, dtype=np.float64)
    for c in range(n_cand):
        kf = float(candidates[c])
        if kf <= 0:
            continue
        comb_pos = j * kf
        live = comb_pos < n
        slots = int(np.count_nonzero(live))
        if slots == 0:
            continue
        comb = float(window_max(comb_pos[live]).sum())
        anti = float(window_max((j[live] + 0.5) * kf).sum())
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
    """Spread operation volumes over bins with scatter-adds.

    Boundary bins receive their pro-rata partials via ``np.add.at``; the
    interior full bins of every operation are filled through a
    difference array + ``cumsum``, so the kernel is O(n_ops + n_bins)
    instead of O(n_ops × bins-per-op) Python iterations.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    width = run_time / n_bins
    values = np.zeros(n_bins, dtype=np.float64)
    keep = volumes > 0
    if not keep.any():
        return values
    s, e, v = starts[keep], ends[keep], volumes[keep]

    burst = e <= s
    if burst.any():
        idx = np.minimum((s[burst] / width).astype(np.int64), n_bins - 1)
        np.add.at(values, idx, v[burst])

    spread = ~burst
    if not spread.any():
        return values
    s, e, v = s[spread], e[spread], v[spread]
    window = e - s  # > 0 by the burst split above
    rate = v / window
    b0 = (s / width).astype(np.int64)
    b1 = np.minimum(np.ceil(e / width).astype(np.int64), n_bins)
    last = b1 - 1

    single = last <= b0
    if single.any():
        lo = np.maximum(s[single], b0[single] * width)
        hi = np.minimum(e[single], (b0[single] + 1) * width)
        np.add.at(
            values,
            np.minimum(b0[single], n_bins - 1),
            rate[single] * np.maximum(hi - lo, 0.0),
        )

    multi = ~single
    if multi.any():
        b0m, lastm = b0[multi], last[multi]
        sm, em, ratem = s[multi], e[multi], rate[multi]
        # First partial bin: [max(s, b0*w), (b0+1)*w).
        first_lo = np.maximum(sm, b0m * width)
        np.add.at(
            values,
            b0m,
            ratem * np.maximum((b0m + 1) * width - first_lo, 0.0),
        )
        # Last partial bin: [last*w, min(e, (last+1)*w)).
        last_hi = np.minimum(em, (lastm + 1) * width)
        np.add.at(
            values,
            lastm,
            ratem * np.maximum(last_hi - lastm * width, 0.0),
        )
        # Interior full bins via difference array.
        full = ratem * width
        diff = np.zeros(n_bins + 1, dtype=np.float64)
        np.add.at(diff, b0m + 1, full)
        np.add.at(diff, lastm, -full)
        values += np.cumsum(diff[:-1])
        # The running sum cancels back to ~0 in bins no operation covers;
        # clamp the round-off residue so the signal stays non-negative.
        np.maximum(values, 0.0, out=values)
    return values
