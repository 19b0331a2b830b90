"""Differential-testing oracle for the runtime kernels.

The NumPy kernels of :mod:`repro.kernels` only get to run because they
are *provably interchangeable* with the pure-Python specifications of
:mod:`repro.testing.reference` on adversarial input: seeded generators
produce operation streams and activity signals exercising every
degenerate shape the corpus throws at the pipeline — zero-duration
operations, negative gaps (overlapping input), fully-contained
operations, heavy-tailed volumes, constant signals — and every kernel
is asserted equivalent to its oracle to tolerance on thousands of cases.

Each per-trace check runs a pipeline wrapper (or the bare kernel) twice,
once on the runtime bundle and once inside
:func:`~repro.testing.reference.reference_kernels`, which swaps the
oracle in.  The ``segmented_*`` entries exercise the batch shape itself:
several adversarial traces are concatenated under one offsets array, the
segmented kernel of :mod:`repro.kernels.batched` runs in a single
dispatch, and each trace's output slice is held equal to the per-trace
oracle — proving segment walls are hard and no merge, group, or bin
ever leaks across traces.

``segmented_event_binning`` holds the closed-form metadata binning
kernel equal to the event-expansion oracle of
:mod:`repro.testing.metadata` on adversarial record families (k = 1,
swapped and empty windows, ``-1`` sentinels, grid points on bin edges,
million-open records, events past run_time, sub-bin runs, non-integral
request weights, steps below the ulp of ``t0``, steps a few ulps off a
bin-edge grid): per-bin event counts
exactly, rates bitwise whenever the request weights are integral.

``pairwise_distances`` holds the Euclidean distance kernel every
clustering routine uses bitwise equal to the third-party ``cdist`` on
point sets in 1-9 dimensions (1x1 inputs, duplicate and integer-valued
rows, magnitudes from 1e-5 to 1e12), and ``distance_consumers`` holds
Mean Shift, the bandwidth estimate, k-means and the silhouette metric
output-equal with ``cdist`` swapped in by :func:`cdist_distances`.

A divergence surfaced here is, by construction, either a vectorization
bug or a latent reference bug; both kinds found while building the
kernels were fixed and carry named regression tests (the one-sided
neighbor-merge gap rule, the ACF decay-shoulder latch).

The module is deliberately dependency-light so both the test suite
(``tests/kernels/``) and ad-hoc debugging sessions can drive it: the
``cdist`` oracle is imported only when a distance check runs.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..cluster.meanshift import mean_shift
from ..darshan.records import FileRecord, JobMeta
from ..darshan.trace import OperationArray, Trace
from ..kernels import get_backend
from ..kernels.batched import (
    group_offsets,
    neighbor_pass_segmented,
    overlap_groups_segmented,
    segment_segmented,
)
from ..kernels.vectorized import coalesce_groups, pairwise_distances
from ..merge.neighbor import NeighborMergeConfig, merge_neighbors
from ..segment.op_segments import segment_operations
from ..signalproc.activity import build_activity_signal
from ..signalproc.autocorr import detect_periodicity_autocorr
from ..signalproc.dft import detect_periodicity_dft
from .reference import REFERENCE, reference_kernels

__all__ = [
    "Divergence",
    "DifferentialReport",
    "KERNEL_PAIRS",
    "adversarial_ops",
    "adversarial_signal",
    "adversarial_batch",
    "adversarial_metadata_batch",
    "adversarial_points",
    "cdist_distances",
    "run_differential",
    "run_all",
]

#: Relative tolerance for float comparisons with the oracle.  Volume
#: sums and weighted means may associate differently in the two;
#: anything beyond accumulated round-off is a real divergence.
RTOL = 1e-9
ATOL = 1e-12

OP_PROFILES = (
    "disjoint",
    "zero_duration",
    "overlapping",
    "contained",
    "heavy_tailed",
    "boundary_gaps",
)

SIGNAL_PROFILES = (
    "constant",
    "zeros",
    "pulse_train",
    "noise",
    "decay",
    "mixture",
)

@dataclass(slots=True, frozen=True)
class Divergence:
    """One oracle/runtime disagreement."""

    kernel: str
    case: int
    seed: int
    profile: str
    message: str


@dataclass(slots=True)
class DifferentialReport:
    """Outcome of a differential sweep over one kernel pair."""

    kernel: str
    n_cases: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.divergences)} divergences"
        return f"{self.kernel}: {self.n_cases} cases, {state}"


# ---------------------------------------------------------------------------
# adversarial generators


def adversarial_ops(
    rng: np.random.Generator, profile: str, max_n: int = 60
) -> OperationArray:
    """A seeded adversarial operation stream of the given profile."""
    n = int(rng.integers(0, max_n + 1))
    if n == 0:
        return OperationArray.empty()
    if profile == "disjoint":
        gaps = rng.exponential(20.0, n)
        durs = rng.exponential(10.0, n)
        starts = np.cumsum(gaps + np.concatenate(([0.0], durs[:-1])))
        ends = starts + durs
        vols = rng.exponential(1e8, n)
    elif profile == "zero_duration":
        starts = np.sort(rng.uniform(0.0, 1000.0, n))
        durs = np.where(rng.random(n) < 0.5, 0.0, rng.exponential(5.0, n))
        ends = starts + durs
        vols = rng.exponential(1e7, n)
    elif profile == "overlapping":
        starts = np.sort(rng.uniform(0.0, 500.0, n))
        ends = starts + rng.exponential(40.0, n)  # long tails overlap
        vols = rng.exponential(1e8, n)
    elif profile == "contained":
        starts = np.sort(rng.uniform(0.0, 500.0, n))
        ends = starts + rng.exponential(10.0, n)
        if n >= 2:
            # make some ops strict sub-windows of their predecessor
            inner = rng.random(n) < 0.4
            inner[0] = False
            prev = np.roll(starts, 1)
            prev_end = np.roll(ends, 1)
            frac0 = rng.uniform(0.0, 0.5, n)
            frac1 = rng.uniform(0.5, 1.0, n)
            span = np.maximum(prev_end - prev, 0.0)
            starts = np.where(inner, prev + frac0 * span, starts)
            ends = np.where(inner, prev + frac1 * span, ends)
            ends = np.maximum(ends, starts)
        vols = rng.exponential(1e8, n)
    elif profile == "heavy_tailed":
        starts = np.sort(rng.uniform(0.0, 10_000.0, n))
        ends = starts + rng.pareto(1.1, n) * 2.0
        vols = rng.pareto(0.9, n) * 1e6 + 1.0
    elif profile == "boundary_gaps":
        # Gaps engineered to sit exactly on / a hair around the merge
        # thresholds (1% of a 100 s op = 1 s; 0.1% of runtime scales).
        durs = np.full(n, 100.0)
        wiggle = rng.choice([-1e-9, 0.0, 1e-9], n)
        gaps = np.where(rng.random(n) < 0.5, 1.0 + wiggle, 5.0 + wiggle)
        starts = np.empty(n)
        starts[0] = 0.0
        for i in range(1, n):
            starts[i] = starts[i - 1] + durs[i - 1] + gaps[i]
        ends = starts + durs
        vols = rng.exponential(1e8, n)
    else:
        raise ValueError(f"unknown op profile: {profile!r}")
    return OperationArray(starts, ends, vols)


def adversarial_signal(
    rng: np.random.Generator, profile: str, max_n: int = 512
) -> np.ndarray:
    """A seeded adversarial activity signal of the given profile."""
    n = int(rng.integers(8, max_n + 1))
    if profile == "constant":
        return np.full(n, float(rng.exponential(10.0)) + 1.0)
    if profile == "zeros":
        return np.zeros(n)
    if profile == "pulse_train":
        period = int(rng.integers(3, max(4, n // 4)))
        duty = int(rng.integers(1, max(2, period // 2)))
        x = np.zeros(n)
        for k in range(0, n, period):
            x[k : k + duty] = rng.exponential(100.0)
        return x
    if profile == "noise":
        return np.abs(rng.normal(0.0, 1.0, n))
    if profile == "decay":
        # Positively-autocorrelated monotone decay: the shape whose ACF
        # shoulder the plateau test used to latch onto.
        return np.exp(-np.arange(n) / max(n / 4.0, 1.0)) * (
            1.0 + 0.01 * rng.random(n)
        )
    if profile == "mixture":
        p1 = int(rng.integers(3, max(4, n // 6)))
        p2 = int(rng.integers(3, max(4, n // 6)))
        t = np.arange(n)
        return (
            np.abs(np.sin(2 * np.pi * t / p1))
            + np.abs(np.sin(2 * np.pi * t / p2))
            + 0.1 * rng.random(n)
        )
    raise ValueError(f"unknown signal profile: {profile!r}")


# ---------------------------------------------------------------------------
# per-pair comparators


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(
        np.allclose(np.asarray(a), np.asarray(b), rtol=RTOL, atol=ATOL)
    )


def _compare_ops(
    ref: OperationArray, got: OperationArray
) -> str | None:
    if len(ref) != len(got):
        return f"op count {len(ref)} != {len(got)}"
    if not np.array_equal(ref.starts, got.starts):
        return "starts differ"
    if not np.array_equal(ref.ends, got.ends):
        return "ends differ"
    if not _close(ref.volumes, got.volumes):
        return "volumes differ beyond tolerance"
    return None


def _check_neighbor(
    rng: np.random.Generator, profile: str
) -> str | None:
    arr = adversarial_ops(rng, profile)
    run_time = float(rng.choice([0.0, 100.0, 10_000.0, 1e6]))
    cfg = NeighborMergeConfig(
        runtime_fraction=float(rng.choice([0.0, 0.001, 0.05])),
        op_fraction=float(rng.choice([0.0, 0.01, 0.2])),
    )
    with reference_kernels():
        ref = merge_neighbors(arr, run_time, cfg)
    got = merge_neighbors(arr, run_time, cfg)
    return _compare_ops(ref.ops, got.ops)


def _check_concurrent(
    rng: np.random.Generator, profile: str
) -> str | None:
    arr = adversarial_ops(rng, profile)
    runtime = get_backend()
    g_ref = REFERENCE.overlap_groups(arr.starts, arr.ends)
    g_got = runtime.overlap_groups(arr.starts, arr.ends)
    if not np.array_equal(g_ref, g_got):
        return "group labels differ"
    if len(arr) == 0:
        return None
    c_ref = REFERENCE.coalesce_groups(arr.starts, arr.ends, arr.volumes, g_ref)
    c_got = runtime.coalesce_groups(arr.starts, arr.ends, arr.volumes, g_got)
    for name, a, b in zip(("starts", "ends"), c_ref[:2], c_got[:2]):
        if not np.array_equal(a, b):
            return f"coalesced {name} differ"
    if not _close(c_ref[2], c_got[2]):
        return "coalesced volumes differ beyond tolerance"
    return None


def _check_segment(
    rng: np.random.Generator, profile: str
) -> str | None:
    arr = adversarial_ops(rng, profile)
    run_time = float(rng.choice([0.0, 500.0, 1e5]))
    with reference_kernels():
        ref = segment_operations(arr, run_time)
    got = segment_operations(arr, run_time)
    for name in ("starts", "durations", "volumes", "busy"):
        if not np.array_equal(getattr(ref, name), getattr(got, name)):
            return f"segment {name} differ"
    return None


def _check_meanshift(
    rng: np.random.Generator, profile: str
) -> str | None:
    n = int(rng.integers(0, 40))
    if profile in ("constant", "zeros"):
        X = np.full((n, 2), 3.0)
    else:
        X = rng.normal(0.0, 1.0, (n, 2)) * rng.choice([1.0, 10.0])
    kernel = "flat" if rng.random() < 0.7 else "gaussian"
    bandwidth = float(rng.choice([0.3, 1.0, 3.0]))
    if n:
        seeds = X.copy()
        step_ref = REFERENCE.shift_step(seeds, X, bandwidth, kernel)
        step_got = get_backend().shift_step(seeds, X, bandwidth, kernel)
        if not _close(step_ref, step_got):
            return "shift step differs beyond tolerance"
    with reference_kernels():
        ref = mean_shift(X, bandwidth, kernel=kernel)
    got = mean_shift(X, bandwidth, kernel=kernel)
    if not np.array_equal(ref.labels, got.labels):
        return "cluster labels differ"
    if not _close(ref.modes, got.modes):
        return "modes differ beyond tolerance"
    return None


def _check_acf(
    rng: np.random.Generator, profile: str
) -> str | None:
    from ..signalproc.activity import ActivitySignal

    x = adversarial_signal(rng, profile)
    sig = ActivitySignal(values=x, bin_width=float(rng.choice([0.5, 1.0, 7.3])))
    with reference_kernels():
        ref = detect_periodicity_autocorr(sig)
    got = detect_periodicity_autocorr(sig)
    if ref.periodic != got.periodic or ref.lag != got.lag:
        return f"detection differs: ref lag {ref.lag}, runtime lag {got.lag}"
    if ref.periodic and not (
        _close(np.array([ref.period]), np.array([got.period]))
        and _close(np.array([ref.strength]), np.array([got.strength]))
    ):
        return "period/strength differ beyond tolerance"
    return None


def _check_dft(
    rng: np.random.Generator, profile: str
) -> str | None:
    from ..signalproc.activity import ActivitySignal

    x = adversarial_signal(rng, profile)
    sig = ActivitySignal(values=x, bin_width=float(rng.choice([0.5, 1.0, 7.3])))
    with reference_kernels():
        ref = detect_periodicity_dft(sig)
    got = detect_periodicity_dft(sig)
    if ref.periodic != got.periodic:
        return f"detection differs: ref {ref.periodic}, runtime {got.periodic}"
    if ref.periodic and not (
        _close(np.array([ref.period]), np.array([got.period]))
        and _close(np.array([ref.confidence]), np.array([got.confidence]))
    ):
        return "period/confidence differ beyond tolerance"
    return None


def _check_bin_activity(
    rng: np.random.Generator, profile: str
) -> str | None:
    arr = adversarial_ops(rng, profile)
    run_time = float(rng.choice([100.0, 1000.0, 123_456.7]))
    n_bins = int(rng.choice([1, 7, 64, 511]))
    with reference_kernels():
        ref = build_activity_signal(arr, run_time, n_bins=n_bins)
    got = build_activity_signal(arr, run_time, n_bins=n_bins)
    # The difference-array vectorization carries round-off relative to
    # the *running* volume sum, not the individual bin, so the absolute
    # tolerance scales with the largest bin (triaged as inherent to the
    # cumsum trick — a logic bug shows up at bin scale, orders louder).
    scale = float(ref.values.max()) if len(ref.values) else 0.0
    if not np.allclose(
        ref.values, got.values, rtol=RTOL, atol=max(RTOL * scale, ATOL)
    ):
        worst = float(np.max(np.abs(ref.values - got.values)))
        return f"binned values differ beyond tolerance (max abs {worst:g})"
    # Volume conservation for fully in-window streams is a shared
    # invariant worth asserting on the runtime kernel too.
    clipped = np.clip(arr.starts, 0.0, run_time)
    if len(arr) and np.array_equal(clipped, arr.starts) and np.all(arr.ends <= run_time):
        expect = float(arr.volumes[arr.volumes > 0].sum())
        if not np.isclose(got.total, expect, rtol=1e-6):
            return f"runtime binning lost volume: {got.total} != {expect}"
    return None


# ---------------------------------------------------------------------------
# segmented (cross-trace) comparators: one batched dispatch vs. a
# per-trace oracle loop.  The batch shape itself is the input under
# test here.


def adversarial_batch(
    rng: np.random.Generator, profile: str, max_traces: int = 6
) -> tuple[list[OperationArray], np.ndarray]:
    """Several adversarial traces concatenated under one offsets array.

    Mixes the requested profile with others (and empty traces) so
    neighbouring segments have genuinely different shapes — the layout
    :func:`repro.columnar.batch.categorize_slice` feeds the segmented
    kernels.
    """
    k = int(rng.integers(1, max_traces + 1))
    arrays: list[OperationArray] = []
    for i in range(k):
        p = profile if i == 0 or rng.random() < 0.5 else str(
            rng.choice(OP_PROFILES)
        )
        arrays.append(adversarial_ops(rng, p, max_n=40))
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum([len(a) for a in arrays], out=offsets[1:])
    return arrays, offsets


def _concat(arrays: list[OperationArray]) -> tuple[np.ndarray, ...]:
    empty = np.empty(0, dtype=np.float64)
    return (
        np.concatenate([a.starts for a in arrays]) if arrays else empty,
        np.concatenate([a.ends for a in arrays]) if arrays else empty,
        np.concatenate([a.volumes for a in arrays]) if arrays else empty,
    )


def _slice_ops(
    starts: np.ndarray,
    ends: np.ndarray,
    volumes: np.ndarray,
    offsets: np.ndarray,
    k: int,
) -> OperationArray:
    lo, hi = int(offsets[k]), int(offsets[k + 1])
    return OperationArray(
        starts[lo:hi].copy(), ends[lo:hi].copy(), volumes[lo:hi].copy()
    )


def _check_neighbor_segmented(
    rng: np.random.Generator, profile: str
) -> str | None:
    arrays, offsets = adversarial_batch(rng, profile)
    run_times = np.array(
        [float(rng.choice([0.0, 100.0, 10_000.0, 1e6])) for _ in arrays]
    )
    cfg = NeighborMergeConfig(
        runtime_fraction=float(rng.choice([0.0, 0.001, 0.05])),
        op_fraction=float(rng.choice([0.0, 0.01, 0.2])),
    )
    s, e, v = _concat(arrays)
    off = offsets
    abs_gaps = cfg.runtime_fraction * np.maximum(run_times, 0.0)
    for _ in range(cfg.max_passes):
        s, e, v, off, changed = neighbor_pass_segmented(
            s, e, v, off, abs_gaps, cfg.op_fraction
        )
        if not changed:
            break
    for k, arr in enumerate(arrays):
        with reference_kernels():
            ref = merge_neighbors(arr, run_times[k], cfg)
        message = _compare_ops(ref.ops, _slice_ops(s, e, v, off, k))
        if message is not None:
            return f"trace {k}/{len(arrays)}: {message}"
    return None


def _check_concurrent_segmented(
    rng: np.random.Generator, profile: str
) -> str | None:
    arrays, offsets = adversarial_batch(rng, profile)
    s, e, v = _concat(arrays)
    groups = overlap_groups_segmented(s, e, offsets)
    for k, arr in enumerate(arrays):
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        g_ref = REFERENCE.overlap_groups(arr.starts, arr.ends)
        g_seg = groups[lo:hi]
        if len(g_seg) and not np.array_equal(g_seg - g_seg[0], g_ref):
            return f"trace {k}/{len(arrays)}: group labels differ"
    if len(s) == 0:
        return None
    cs, ce, cv = coalesce_groups(s, e, v, groups)
    goff = group_offsets(groups, offsets)
    for k, arr in enumerate(arrays):
        if len(arr) == 0:
            if goff[k + 1] != goff[k]:
                return f"trace {k}: empty trace produced groups"
            continue
        g_ref = REFERENCE.overlap_groups(arr.starts, arr.ends)
        r = REFERENCE.coalesce_groups(arr.starts, arr.ends, arr.volumes, g_ref)
        message = _compare_ops(
            OperationArray(*(np.asarray(x, dtype=np.float64) for x in r)),
            _slice_ops(cs, ce, cv, goff, k),
        )
        if message is not None:
            return f"trace {k}/{len(arrays)}: coalesced {message}"
    return None


def _check_segment_segmented(
    rng: np.random.Generator, profile: str
) -> str | None:
    arrays, offsets = adversarial_batch(rng, profile)
    run_times = np.array(
        [float(rng.choice([0.0, 500.0, 1e5])) for _ in arrays]
    )
    s, e, v = _concat(arrays)
    out = segment_segmented(s, e, v, offsets, run_times)
    names = ("starts", "durations", "volumes", "busy")
    for k, arr in enumerate(arrays):
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        with reference_kernels():
            ref = segment_operations(arr, run_times[k])
        for name, col in zip(names, out):
            if not np.array_equal(getattr(ref, name), col[lo:hi]):
                return f"trace {k}/{len(arrays)}: segment {name} differ"
    return None


#: Record families of the closed-form metadata binning check.
METADATA_PROFILES = (
    "single_open",  # k in {0, 1}, and k = 2 over a 1e5 s window
    "inverted_window",  # close before open (swapped), close == open
    "sentinels",  # -1 open_start / close_end, first-read fallback
    "bin_edges",  # integer t0, step = w/m: grid points on bin edges
    "huge_k",  # k >= 1e6 on some cases
    "past_run_time",  # events past run_time clip into the last bin
    "short_run",  # run_time shorter than one bin
    "fractional",  # non-integral n/k request weights
    "dense",  # step below the ulp of t0: staircase event times
    "near_tie",  # t0 on an edge, step a few ulps off w/m: near-edge events
)


def _metadata_record(
    rng: np.random.Generator, profile: str, run_time: float, width: float
) -> FileRecord:
    """One record of ``profile`` (``"ordinary"`` for a plain one)."""
    k = int(rng.integers(0, 60))
    t0 = float(rng.uniform(0.0, run_time))
    t1 = t0 + float(rng.exponential(run_time / 8))
    seeks = int(rng.choice([0, 1, k]))
    closes = k
    if profile == "single_open":
        k = int(rng.choice([0, 1, 2]))
        seeks = int(rng.choice([0, 1, 3]))
        closes = int(rng.choice([0, 1, k]))
        if k == 2:
            t0 = float(rng.uniform(0.0, 10.0))
            t1 = t0 + 1e5
    elif profile == "inverted_window":
        k = int(rng.integers(2, 2000))
        t1 = t0 if rng.random() < 0.3 else t0 - float(rng.uniform(0, t0))
    elif profile == "sentinels":
        k = int(rng.integers(0, 500))
        which = int(rng.integers(0, 3))
        if which in (0, 2):
            t0 = -1.0
        if which in (1, 2):
            t1 = -1.0
    elif profile == "bin_edges":
        k = int(rng.integers(2, 5000))
        m = int(rng.choice([1, 2, 3, 4, 8, 10]))
        t0 = float(rng.integers(0, 100))
        t1 = t0 + k * (width / m)
    elif profile == "huge_k":
        # the oracle pays ~0.3 s per million-open record: keep them rare
        big = rng.random() < 0.015
        k = int(rng.integers(1_000_000, 1_500_000) if big else rng.integers(2_000, 20_000))
        seeks = int(rng.choice([0, k]))
        closes = k
        t0 = float(rng.uniform(0.0, run_time / 2))
        t1 = t0 + float(rng.choice([0.7 * width, rng.uniform(0, run_time)]))
    elif profile == "past_run_time":
        k = int(rng.integers(2, 3000))
        t0 = float(rng.uniform(0.5, 1.5)) * run_time
        t1 = t0 + float(rng.uniform(0.0, 2.0)) * run_time
    elif profile == "fractional":
        k = int(rng.integers(2, 800))
        seeks = int(rng.integers(0, 3 * k))
        closes = int(rng.integers(0, 2 * k))
    elif profile == "dense":
        k = int(rng.integers(1_000, 10_000))
        edge = float(rng.integers(1, 10)) * width + float(rng.choice([0.0, 1e5]))
        span = float(rng.choice([1e-9, 1e-7, 1e-5]))
        t0 = edge - float(rng.uniform(0.0, span))
        t1 = t0 + span
    elif profile == "near_tie":
        # t0 on a bin edge (large on long runs) and t1 = t0 + k*w/m moved
        # 1-4 ulps, so the step is a few ulps off w/m and every m-th open
        # lands within ulps of an edge: the crossing estimates that the
        # kernel cannot certify and settles by evaluating events
        k = int(rng.integers(2, 5000))
        m = int(rng.choice([2, 3, 4, 8, 10]))
        t0 = width * float(rng.integers(0, max(int(run_time / (2 * width)), 1)))
        t1 = t0 + k * (width / m)
        toward = float(rng.choice([-np.inf, np.inf]))
        for _ in range(int(rng.integers(1, 5))):
            t1 = float(np.nextafter(t1, toward))
    read_start = -1.0 if rng.random() < 0.3 else float(rng.uniform(0, run_time))
    return FileRecord(
        file_id=int(rng.integers(1, 1 << 30)),
        file_name="f",
        rank=0,
        opens=k,
        closes=closes,
        seeks=seeks,
        open_start=t0,
        close_end=t1,
        read_start=read_start,
    )


def adversarial_metadata_batch(
    rng: np.random.Generator, profile: str, max_traces: int = 4
) -> tuple[list[Trace], float]:
    """Traces whose records mix ``profile`` with ordinary records.

    Returns the traces (one segment each) and the bin width.
    """
    width = float(
        rng.choice(
            [0.25, 0.5, 1.0]
            if profile in ("bin_edges", "near_tie")
            else [0.1, 0.5, 1.0, 7.3]
        )
    )
    traces = []
    for j in range(int(rng.integers(1, max_traces + 1))):
        if profile == "short_run":
            run_time = float(rng.uniform(0.01, 0.99)) * width
        else:
            run_time = float(rng.choice([50.0, 1000.0, 1.2e5]))
        records = [
            _metadata_record(
                rng,
                profile if j == 0 or rng.random() < 0.5 else "ordinary",
                run_time,
                width,
            )
            for _ in range(int(rng.integers(0, 7)))
        ]
        meta = JobMeta(
            job_id=j, uid=0, exe="a", nprocs=1, start_time=0.0, end_time=run_time
        )
        traces.append(Trace(meta=meta, records=records))
    return traces, width


def _check_metadata_binning(
    rng: np.random.Generator, profile: str
) -> str | None:
    """Closed-form kernel vs expansion + sort + ``bincount`` oracle.

    Per-bin event counts must match exactly; rates bitwise whenever
    every spread record's ``n / k`` is integral, else within the
    summation-order bound of docs/ALGORITHMS.md.
    """
    from ..kernels.batched import bin_events_segmented
    from .metadata import bin_events, metadata_events

    traces, width = adversarial_metadata_batch(rng, profile)
    per_trace = [t.metadata_columns() for t in traces]
    columns = [np.concatenate(c) for c in zip(*per_trace)]
    offsets = np.zeros(len(traces) + 1, dtype=np.int64)
    np.cumsum([len(t.records) for t in traces], out=offsets[1:])
    run_times = np.array([t.meta.run_time for t in traces])

    t0, t1, opens, n_open, n_close = columns
    spread = (n_open + n_close > 0) & (opens > 1) & ~(t1 <= t0)
    # count columns: every expanded event carries one request
    ones = [
        t0,
        t1,
        opens,
        np.where(spread, opens, n_open != 0),
        np.where(spread, opens, n_close != 0),
    ]
    rates, bin_offsets = bin_events_segmented(
        *columns, offsets, run_times, width
    )
    counts, _ = bin_events_segmented(*ones, offsets, run_times, width)
    eps = np.finfo(np.float64).eps
    for j, trace in enumerate(traces):
        bins = slice(int(bin_offsets[j]), int(bin_offsets[j + 1]))
        times, weights = metadata_events(trace)
        run_time = trace.meta.run_time
        want_counts = bin_events(times, np.ones(len(times)), run_time, width)
        if not np.array_equal(counts[bins], want_counts):
            return f"trace {j}/{len(traces)}: per-bin event counts differ"
        want = bin_events(times, weights, run_time, width)
        got = rates[bins]
        recs = slice(int(offsets[j]), int(offsets[j + 1]))
        k = opens[recs][spread[recs]]
        integral = not np.any(
            (n_open[recs][spread[recs]] % k) | (n_close[recs][spread[recs]] % k)
        )
        if integral:
            if not np.array_equal(got, want):
                return f"trace {j}/{len(traces)}: integral rates not bitwise equal"
        elif np.any(np.abs(got - want) > (want_counts + 2) * eps * want):
            return f"trace {j}/{len(traces)}: rates beyond the summation bound"
    return None


# ---------------------------------------------------------------------------
# the distance kernel vs the third-party cdist


#: Point families of the distance check, each in 1-9 dimensions.
POINT_PROFILES = (
    "single",  # 1x1 inputs
    "duplicates",  # repeated rows, shared between both inputs
    "integers",  # integer-valued rows up to 1e12
    "tiny",  # magnitudes around 1e-5
    "huge",  # magnitudes around 1e12
    "offset",  # close points far from the origin: cancelling differences
    "mixed_scale",  # per-dimension magnitudes from 1e-5 to 1e12
)

#: Modules whose ``pairwise_distances`` global :func:`cdist_distances`
#: swaps.
DISTANCE_USERS = (
    "repro.kernels.vectorized",
    "repro.cluster.meanshift",
    "repro.cluster.bandwidth",
    "repro.cluster.metrics",
    "repro.discovery.kmeans",
)


def _cdist():
    """The oracle, imported on first use: the runtime never needs it."""
    from scipy.spatial.distance import cdist

    return cdist


def adversarial_points(
    rng: np.random.Generator, profile: str, max_n: int = 40
) -> tuple[np.ndarray, np.ndarray]:
    """Two seeded point sets ``(n, d)`` and ``(m, d)`` of ``profile``."""
    d = int(rng.integers(1, 10))
    n, m = (1, 1) if profile == "single" else rng.integers(1, max_n + 1, 2)
    scale = 10.0 ** rng.uniform(-5.0, 12.0)
    if profile in ("single", "duplicates"):
        pool = rng.normal(0.0, scale, (int(rng.integers(1, 4)), d))
        return pool[rng.integers(0, len(pool), n)], pool[rng.integers(0, len(pool), m)]
    if profile == "integers":
        hi = 10 ** int(rng.integers(1, 13))
        return (
            rng.integers(-hi, hi, (n, d)).astype(np.float64),
            rng.integers(-hi, hi, (m, d)).astype(np.float64),
        )
    if profile == "offset":
        origin = rng.normal(0.0, 1e12, d)
        return (
            origin + rng.normal(0.0, scale * 1e-6, (n, d)),
            origin + rng.normal(0.0, scale * 1e-6, (m, d)),
        )
    if profile == "tiny":
        scale = 10.0 ** rng.uniform(-5.0, -3.0)
    elif profile == "huge":
        scale = 10.0 ** rng.uniform(10.0, 12.0)
    elif profile == "mixed_scale":
        scale = 10.0 ** rng.uniform(-5.0, 12.0, d)
    else:
        raise ValueError(f"unknown point profile: {profile!r}")
    return rng.normal(0.0, 1.0, (n, d)) * scale, rng.normal(0.0, 1.0, (m, d)) * scale


@contextmanager
def cdist_distances() -> Iterator[None]:
    """Run every ``pairwise_distances`` call inside the block on ``cdist``.

    Process-wide and not thread-safe, like
    :func:`~repro.testing.reference.reference_kernels`: a test-only swap
    of the name in each of :data:`DISTANCE_USERS`, restored on exit.
    """
    cdist = _cdist()
    modules = [importlib.import_module(name) for name in DISTANCE_USERS]
    saved = [module.pairwise_distances for module in modules]
    for module in modules:
        module.pairwise_distances = cdist
    try:
        yield
    finally:
        for module, fn in zip(modules, saved):
            module.pairwise_distances = fn


def _check_pairwise_distances(
    rng: np.random.Generator, profile: str
) -> str | None:
    """Exact equality with ``cdist``, across and within point sets."""
    cdist = _cdist()
    a, b = adversarial_points(rng, profile)
    for name, x, y in (("a x b", a, b), ("a x a", a, a)):
        if not np.array_equal(pairwise_distances(x, y), cdist(x, y)):
            return f"{name} distances differ from cdist"
    return None


def _check_distance_consumers(
    rng: np.random.Generator, profile: str
) -> str | None:
    """Every clustering routine gives the same output on either distance."""
    from ..cluster.bandwidth import estimate_bandwidth
    from ..cluster.metrics import silhouette_mean
    from ..discovery.kmeans import kmeans

    X, _ = adversarial_points(rng, profile)
    labels = rng.integers(0, 3, len(X))
    k = int(rng.integers(1, min(len(X), 4) + 1))
    kernel = "flat" if rng.random() < 0.7 else "gaussian"
    seed = int(rng.integers(0, 2**31))

    def outputs() -> dict[str, object]:
        ms = mean_shift(X, kernel=kernel)
        km = kmeans(X, k, n_init=2, seed=seed)
        return {
            "mean_shift labels": ms.labels,
            "mean_shift modes": ms.modes,
            "mean_shift n_iter": ms.n_iter,
            "mean_shift bandwidth": ms.bandwidth,
            "estimate_bandwidth": estimate_bandwidth(X),
            "kmeans labels": km.labels,
            "kmeans centers": km.centers,
            "kmeans inertia": km.inertia,
            "kmeans n_iter": km.n_iter,
            "silhouette_mean": silhouette_mean(X, labels),
        }

    got = outputs()
    with cdist_distances():
        ref = outputs()
    for name, want in ref.items():
        if not np.array_equal(got[name], want):
            return f"{name} differs under cdist"
    return None


KERNEL_PAIRS = {
    "neighbor_merge": (_check_neighbor, OP_PROFILES),
    "concurrent_fusion": (_check_concurrent, OP_PROFILES),
    "segmentation": (_check_segment, OP_PROFILES),
    "meanshift_step": (_check_meanshift, SIGNAL_PROFILES),
    "acf_peak_scan": (_check_acf, SIGNAL_PROFILES),
    "dft_comb_scan": (_check_dft, SIGNAL_PROFILES),
    "activity_binning": (_check_bin_activity, OP_PROFILES),
    "segmented_neighbor_merge": (_check_neighbor_segmented, OP_PROFILES),
    "segmented_concurrent_fusion": (_check_concurrent_segmented, OP_PROFILES),
    "segmented_segmentation": (_check_segment_segmented, OP_PROFILES),
    "segmented_event_binning": (_check_metadata_binning, METADATA_PROFILES),
    "pairwise_distances": (_check_pairwise_distances, POINT_PROFILES),
    "distance_consumers": (_check_distance_consumers, POINT_PROFILES),
}


def run_differential(
    kernel: str, n_cases: int = 1000, seed: int = 0
) -> DifferentialReport:
    """Sweep one kernel pair over ``n_cases`` seeded adversarial cases."""
    try:
        check, profiles = KERNEL_PAIRS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel pair {kernel!r}; available: "
            + ", ".join(sorted(KERNEL_PAIRS))
        ) from None
    report = DifferentialReport(kernel=kernel)
    for case in range(n_cases):
        profile = profiles[case % len(profiles)]
        rng = np.random.default_rng(seed + case)
        message = check(rng, profile)
        report.n_cases += 1
        if message is not None:
            report.divergences.append(
                Divergence(
                    kernel=kernel,
                    case=case,
                    seed=seed + case,
                    profile=profile,
                    message=message,
                )
            )
    return report


def run_all(n_cases: int = 1000, seed: int = 0) -> list[DifferentialReport]:
    """Sweep every kernel pair."""
    return [run_differential(k, n_cases, seed) for k in KERNEL_PAIRS]
