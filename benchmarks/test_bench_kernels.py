"""KERNELS — reference vs runtime per-trace kernel costs.

Times every kernel of the runtime bundle (:func:`repro.kernels.get_backend`)
against its pure-Python oracle (:data:`repro.testing.reference.REFERENCE`)
on seeded synthetic inputs at 1k/10k/100k operations and emits
``BENCH_kernels.json`` (schema in ``docs/BENCHMARKS.md``) to seed the
perf trajectory.  The runtime kernels fill the ``vectorized`` columns;
merge and segmentation are the single-segment calls of the segmented
kernels.  The
``metadata_rate`` row times the per-second metadata rate of one trace
with ``k`` opens two ways: the event-expansion oracle
(:mod:`repro.testing.metadata`, in the ``reference`` column) against
the closed-form kernel (:func:`repro.core.metadata.metadata_rate`, in
the ``vectorized`` column), at k = 1k/100k/1M.  The test doubles as the
CI smoke gate: it fails if a runtime kernel (or the closed form)
is slower than the pure-Python reference on any kernel at any size
(subject to the per-kernel ``NOT_SLOWER_BAND`` — see its note on the
shared-FFT ``dft_comb_scan``), and it requires the headline ≥ 5×
speedups on the neighbor-merge and ACF peak-scan kernels at 10k ops.

Environment:

``MOSAIC_BENCH_KERNEL_SIZES``
    Comma-separated op counts (default ``1000,10000,100000``; the
    ``metadata_rate`` row defaults to ``1000,100000,1000000`` opens and
    follows this variable when it is set).  CI smoke runs ``1000,10000``
    to stay fast.
``MOSAIC_BENCH_KERNEL_OUT``
    Output path for the JSON artifact (default ``BENCH_kernels.json``
    at the repository root).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.metadata import metadata_rate
from repro.darshan.records import FileRecord, JobMeta
from repro.darshan.trace import Trace
from repro.kernels import get_backend
from repro.testing.metadata import oracle_rate
from repro.testing.reference import REFERENCE

DEFAULT_SIZES = (1_000, 10_000, 100_000)
#: Opens per trace of the ``metadata_rate`` row when no sizes are set.
METADATA_SIZES = (1_000, 100_000, 1_000_000)
#: Runtime of the ``metadata_rate`` trace: one-second bins over an hour.
METADATA_RUN_S = 3600.0
#: Kernels whose 10k-op speedup is a hard acceptance floor.
HEADLINE_SPEEDUP = {"neighbor_merge": 5.0, "acf_peak_scan": 5.0}
HEADLINE_SIZE = 10_000
#: Per-kernel not-slower floors.  The default is a flat 1.0 (the runtime
#: kernel must never lose to the reference), but ``dft_comb_scan`` shares its
#: FFT — the dominant cost — with the reference twin, so its measured
#: ratio hovers near parity and timing jitter on shared CI runners trips
#: a flat gate.  The band says "within 15% of parity is a tie, not a
#: regression"; real regressions (a Python loop sneaking back in) land
#: far below it.
NOT_SLOWER_BAND = {"dft_comb_scan": 0.85}
MEANSHIFT_SEEDS = 8
ACTIVITY_BINS = 4096


def _sizes() -> list[int]:
    raw = os.environ.get("MOSAIC_BENCH_KERNEL_SIZES")
    if not raw:
        return list(DEFAULT_SIZES)
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _metadata_sizes() -> list[int]:
    if os.environ.get("MOSAIC_BENCH_KERNEL_SIZES"):
        return _sizes()
    return list(METADATA_SIZES)


def _out_path() -> Path:
    raw = os.environ.get("MOSAIC_BENCH_KERNEL_OUT")
    if raw:
        return Path(raw)
    return Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


# ---------------------------------------------------------------------------
# Input builders: one seeded workload per kernel and size.  Each returns a
# zero-argument closure over a kernel bundle so both implementations time
# the identical arrays.


def _ops_arrays(rng: np.random.Generator, n: int):
    gaps = rng.exponential(1.0, n)
    durations = rng.exponential(2.0, n)
    starts = np.cumsum(gaps + np.concatenate(([0.0], durations[:-1])))
    ends = starts + durations
    volumes = rng.lognormal(10.0, 2.0, n)
    return starts, ends, volumes


def _bench_neighbor(backend, rng, n):
    starts, ends, volumes = _ops_arrays(rng, n)
    return lambda: backend.neighbor_pass(starts, ends, volumes, 0.5, 0.01)


def _bench_concurrent(backend, rng, n):
    starts = np.sort(rng.uniform(0.0, n / 4.0, n))
    ends = starts + rng.exponential(2.0, n)
    volumes = rng.lognormal(10.0, 2.0, n)

    def run():
        groups = backend.overlap_groups(starts, ends)
        return backend.coalesce_groups(starts, ends, volumes, groups)

    return run


def _bench_segment(backend, rng, n):
    starts, ends, volumes = _ops_arrays(rng, n)
    run_time = float(ends[-1]) * 1.1
    return lambda: backend.segment(starts, ends, volumes, run_time)


def _bench_meanshift(backend, rng, n):
    X = rng.normal(0.0, 1.0, (n, 2))
    seeds = X[:MEANSHIFT_SEEDS].copy()
    return lambda: backend.shift_step(seeds, X, 0.15, "flat")


def _bench_acf(backend, rng, n):
    # Damped oscillation whose peaks all sit under the floor: both
    # implementations scan the full lag range (the reference cannot
    # short-circuit), which is the honest worst-case comparison.
    t = np.linspace(0.0, 3.0, n)
    acf = np.cos(40.0 * t) * np.exp(-t)
    return lambda: backend.acf_peak_scan(acf, n // 3, 0.95)


def _bench_dft(backend, rng, n):
    power = rng.random(n)
    k_peak = n // 50
    candidates = np.asarray(
        [k_peak / m for m in range(1, 5) if k_peak // m >= 1], dtype=np.float64
    )
    return lambda: backend.dft_comb_scores(power, candidates, 12)


def _bench_bin_activity(backend, rng, n):
    starts, ends, volumes = _ops_arrays(rng, n)
    run_time = float(ends[-1]) * 1.05
    return lambda: backend.bin_activity(
        starts, ends, volumes, run_time, ACTIVITY_BINS
    )


def _metadata_trace(rng: np.random.Generator, k: int) -> Trace:
    """A checkpointing trace: four files reopened ``k`` times in total
    over the hour (opens + seeks, closes), plus 32 single-open files."""
    records = []
    for i, opens in enumerate([k // 4] * 3 + [k - 3 * (k // 4)]):
        t0 = float(rng.uniform(0.0, METADATA_RUN_S / 4))
        records.append(
            FileRecord(
                file_id=i,
                file_name=f"ckpt{i}",
                rank=0,
                opens=opens,
                closes=opens,
                seeks=opens,
                open_start=t0,
                close_end=float(rng.uniform(t0, METADATA_RUN_S)),
            )
        )
    for i in range(32):
        t0 = float(rng.uniform(0.0, METADATA_RUN_S))
        records.append(
            FileRecord(
                file_id=100 + i,
                file_name=f"in{i}",
                rank=i,
                opens=1,
                closes=1,
                open_start=t0,
                close_end=t0 + 1.0,
            )
        )
    meta = JobMeta(
        job_id=1, uid=1, exe="ckpt", nprocs=32, start_time=0.0,
        end_time=METADATA_RUN_S,
    )
    return Trace(meta=meta, records=records)


def _bench_metadata_rate(sizes: list[int]) -> dict[str, dict[str, float]]:
    rows = {}
    for k in sizes:
        trace = _metadata_trace(np.random.default_rng(20260806 + k), k)
        # integral request weights: the two must agree bit for bit
        assert np.array_equal(oracle_rate(trace, 1.0), metadata_rate(trace, 1.0))
        ref_s = _best_seconds(lambda: oracle_rate(trace, 1.0))
        new_s = _best_seconds(lambda: metadata_rate(trace, 1.0))
        rows[str(k)] = {
            "reference_ns_per_op": ref_s / k * 1e9,
            "vectorized_ns_per_op": new_s / k * 1e9,
            "speedup": ref_s / new_s,
        }
    return rows


BENCHES = {
    "neighbor_merge": _bench_neighbor,
    "concurrent_fusion": _bench_concurrent,
    "segmentation": _bench_segment,
    "meanshift_step": _bench_meanshift,
    "acf_peak_scan": _bench_acf,
    "dft_comb_scan": _bench_dft,
    "activity_binning": _bench_bin_activity,
}


def _best_seconds(run) -> float:
    """Best-of-3 wall time, batching fast calls to ~20 ms per sample."""
    t0 = time.perf_counter()
    run()
    first = time.perf_counter() - t0
    if first > 1.0:
        # Slow reference kernel: one more sample is all we can afford.
        t0 = time.perf_counter()
        run()
        return min(first, time.perf_counter() - t0)
    loops = max(1, min(1000, int(0.02 / max(first, 1e-9))))
    best = first
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(loops):
            run()
        best = min(best, (time.perf_counter() - t0) / loops)
    return best


def run_kernel_bench(sizes: list[int]) -> dict:
    reference = REFERENCE
    runtime = get_backend()
    kernels: dict[str, dict[str, dict[str, float]]] = {}
    for name, build in BENCHES.items():
        kernels[name] = {}
        for n in sizes:
            rng = np.random.default_rng(20260806 + n)
            ref_s = _best_seconds(build(reference, rng, n))
            rng = np.random.default_rng(20260806 + n)
            run_s = _best_seconds(build(runtime, rng, n))
            kernels[name][str(n)] = {
                "reference_ns_per_op": ref_s / n * 1e9,
                "vectorized_ns_per_op": run_s / n * 1e9,
                "speedup": ref_s / run_s,
            }
    metadata_sizes = _metadata_sizes()
    kernels["metadata_rate"] = _bench_metadata_rate(metadata_sizes)
    return {
        "schema": "mosaic-kernel-bench/1",
        "unit": "ns_per_op",
        "sizes": sizes,
        "metadata_sizes": metadata_sizes,
        "meanshift_seeds": MEANSHIFT_SEEDS,
        "activity_bins": ACTIVITY_BINS,
        "not_slower_band": dict(NOT_SLOWER_BAND),
        "kernels": kernels,
    }


def test_kernel_speedups():
    sizes = _sizes()
    result = run_kernel_bench(sizes)
    out = _out_path()
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    failures = []
    for name, by_size in result["kernels"].items():
        band = NOT_SLOWER_BAND.get(name, 1.0)
        for n, row in by_size.items():
            if row["speedup"] < band:
                failures.append(
                    f"{name}@{n}: runtime kernel slower than reference "
                    f"(speedup {row['speedup']:.2f}x, floor {band:.2f}x)"
                )
        floor = HEADLINE_SPEEDUP.get(name)
        key = str(HEADLINE_SIZE)
        if floor is not None and key in by_size:
            if by_size[key]["speedup"] < floor:
                failures.append(
                    f"{name}@{key}: speedup {by_size[key]['speedup']:.2f}x "
                    f"below the {floor:.0f}x acceptance floor"
                )
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    payload = run_kernel_bench(_sizes())
    _out_path().write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for kernel, by_size in payload["kernels"].items():
        row = ", ".join(
            f"{n}: {v['speedup']:.1f}x" for n, v in sorted(by_size.items(), key=lambda kv: int(kv[0]))
        )
        print(f"{kernel:18s} {row}")
