"""CORPUS — store-backed batch path vs the per-trace streaming path.

Times the pipeline twice over one synthetic fleet: the per-trace path
(``run_pipeline_stream`` parsing binary payloads from a directory, the
way a live Darshan drop-box is consumed) and the store-backed fast path
(``run_pipeline_store`` over a ``.mosc`` store compiled once from the
same directory).  Each run's pass ① (scan) and pass ② (categorize) are
timed apart, from the pipeline's own stage timings, and reported as
rates of like things: the stream's input traces scanned per second, and
each path's selected traces categorized per second.  Emits
``BENCH_corpus.json`` (schema in ``docs/BENCHMARKS.md``) and enforces
two gates:

* both paths must produce **identical** categorization results — the
  zero-copy batch path is only allowed to be fast because it is
  indistinguishable;
* the store must categorize at least as many traces per second as the
  stream (``MIN_CATEGORIZE_RATIO``).  The
  compile pass is reported separately because it is paid once per
  corpus, not once per analysis.

The fleet defaults to ~48 runs per application — the paper's corpus
ratio (1,181,788 runs over 24,606 applications, §IV) — because run
multiplicity is exactly what the store amortizes: pass ① re-parses
every payload on every streaming run but touches only the compiled
index here.

Environment:

``MOSAIC_BENCH_CORPUS_APPS``
    Number of applications in the fleet (default ``100``).  CI smoke
    runs a reduced fleet.
``MOSAIC_BENCH_CORPUS_MEAN_RUNS``
    Mean runs per application (default ``48``).
``MOSAIC_BENCH_CORPUS_OUT``
    Output path for the JSON artifact (default ``BENCH_corpus.json`` at
    the repository root).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.columnar import compile_corpus
from repro.core import run_pipeline_store, run_pipeline_stream
from repro.darshan.io_binary import save_binary
from repro.darshan.source import DirectorySource
from repro.synth import FleetConfig, generate_fleet

SEED = 20190101
REPS = 3
#: Floor for the store's categorized/s over the stream's.
MIN_CATEGORIZE_RATIO = 1.0


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, str(default)))


def _out_path() -> Path:
    raw = os.environ.get("MOSAIC_BENCH_CORPUS_OUT")
    if raw:
        return Path(raw)
    return Path(__file__).resolve().parent.parent / "BENCH_corpus.json"


def _rates(run) -> tuple[dict, object]:
    """Best-of-REPS pass times and rates of one path, plus the last
    run's result."""
    best = {"seconds": float("inf"), "scan_seconds": float("inf"),
            "categorize_seconds": float("inf")}
    result = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = run()
        wall = time.perf_counter() - t0
        for key, value in (
            ("seconds", wall),
            ("scan_seconds", result.timings["scan_s"]),
            ("categorize_seconds", result.timings["categorize_s"]),
        ):
            best[key] = min(best[key], value)
    best["scanned_per_s"] = result.preprocess.n_input / best["scan_seconds"]
    best["categorized_per_s"] = len(result.results) / best["categorize_seconds"]
    return best, result


def run_corpus_bench(n_apps: int, mean_runs: float) -> dict:
    fleet = generate_fleet(
        FleetConfig(n_apps=n_apps, mean_runs=mean_runs, seed=SEED)
    )
    with tempfile.TemporaryDirectory() as tmp:
        trace_dir = os.path.join(tmp, "traces")
        os.makedirs(trace_dir)
        for trace in fleet.traces:
            save_binary(
                trace,
                os.path.join(trace_dir, f"job{trace.meta.job_id:08d}.mosd"),
            )
        store_path = os.path.join(tmp, "corpus.mosc")

        t0 = time.perf_counter()
        report = compile_corpus(DirectorySource(trace_dir), store_path)
        compile_s = time.perf_counter() - t0

        stream, stream_res = _rates(
            lambda: run_pipeline_stream(DirectorySource(trace_dir))
        )
        store, store_res = _rates(lambda: run_pipeline_store(store_path))

    identical = [r.to_dict() for r in stream_res.results] == [
        r.to_dict() for r in store_res.results
    ]
    n = report.n_traces
    del store["scanned_per_s"]  # the store's scan reads an index, not inputs
    return {
        "schema": "mosaic-corpus-bench/2",
        "fleet": {
            "n_apps": n_apps,
            "mean_runs": mean_runs,
            "seed": SEED,
            "n_traces": n,
            "n_selected": len(store_res.results),
        },
        "compile": {
            "seconds": compile_s,
            "traces_per_s": n / compile_s,
            "store_bytes": report.n_bytes,
        },
        "stream": stream,
        "store": store,
        "categorized_ratio": store["categorized_per_s"] / stream["categorized_per_s"],
        "results_identical": identical,
    }


def test_store_backed_categorize_rate():
    n_apps = _env_int("MOSAIC_BENCH_CORPUS_APPS", 100)
    mean_runs = _env_float("MOSAIC_BENCH_CORPUS_MEAN_RUNS", 48.0)

    result = run_corpus_bench(n_apps, mean_runs)
    out = _out_path()
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    assert result["results_identical"], (
        "store-backed pipeline diverged from the per-trace path"
    )
    ratio = result["categorized_ratio"]
    assert ratio >= MIN_CATEGORIZE_RATIO, (
        f"store categorizes {ratio:.2f}x the stream's traces per second, "
        f"below the {MIN_CATEGORIZE_RATIO:g}x floor "
        f"({result['store']['categorized_per_s']:.0f} vs "
        f"{result['stream']['categorized_per_s']:.0f} traces/s)"
    )


if __name__ == "__main__":
    payload = run_corpus_bench(
        _env_int("MOSAIC_BENCH_CORPUS_APPS", 100),
        _env_float("MOSAIC_BENCH_CORPUS_MEAN_RUNS", 48.0),
    )
    _out_path().write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    stream, store = payload["stream"], payload["store"]
    print(
        f"{payload['fleet']['n_traces']} traces: "
        f"stream scans {stream['scanned_per_s']:.0f} tr/s, "
        f"categorizes {stream['categorized_per_s']:.0f} tr/s; "
        f"store categorizes {store['categorized_per_s']:.0f} tr/s, "
        f"{payload['categorized_ratio']:.2f}x "
        f"(identical={payload['results_identical']})"
    )
