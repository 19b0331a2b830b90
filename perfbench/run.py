"""Mosaic's benchmark: one command, three workloads, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-stream --seed 1 --seconds 16 --trace 0

Workloads: ``paper-stream`` (``run_pipeline_stream`` over a fleet in the
paper's proportions), ``ckpt-store`` (``compile_corpus`` then
``run_pipeline_store`` over a metadata-dense fleet) and ``serve-mix``
(cold, warm and deduplicated jobs against ``mosaic serve`` subprocesses).
Inputs are generated from ``--seed`` and cached under
``perfbench/.cache``; the timed run happens in a fresh process after one
untimed warm-up pass (serve-mix: warm-up round).  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run (see README.md).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any output differs from its oracle, 2 when the checkout has no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

WORKLOADS = ("paper-stream", "ckpt-store", "serve-mix")

#: Serve-mix request kinds (see ``worker._schedule``).
KINDS = ("cold", "warm", "dedup")

#: End-to-end metrics (``--trace 0``), in report order, with units.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "scanned_per_s": "traces/s",
    "categorized_per_s": "traces/s",
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MiB",
    "accuracy": "fraction",
}

#: Span name -> per-layer self-time metric.  These partition the traced
#: wall together with ``trace.unattributed_s``.
SELF_METRICS: dict[str, str] = {
    "darshan.decode": "darshan.decode_s",
    "darshan.validate": "darshan.validate_s",
    "core.scan": "core.scan.self_s",
    "core.merge": "core.merge_s",
    "core.temporality": "core.temporality_s",
    "core.periodicity": "core.periodicity_s",
    "core.metadata": "core.metadata_s",
    "core.categorize": "core.categorize.self_s",
    "columnar.compile": "columnar.compile_s",
    "columnar.attach": "columnar.attach_s",
    "columnar.scan": "columnar.scan_s",
    "columnar.slice": "columnar.slice_s",
    "columnar.metadata": "columnar.metadata_s",
    "kernels.bin_events": "kernels.bin_events_s",
    "kernels.merge": "kernels.merge_s",
    "kernels.segment": "kernels.segment_s",
    "parallel.map": "parallel.map.self_s",
    "parallel.jobstore.settle": "parallel.jobstore.settle_s",
    "io.fsync": "io.fsync_s",
    "service.cache.get": "service.cache.get_s",
    "service.cache.put": "service.cache.put_s",
}

#: Per-layer metrics (``--trace 1``), with units.  Times and counts are
#: per timed pass (batch) or per round (serve-mix).
PER_LAYER: dict[str, str] = {
    **{metric: "s" for metric in SELF_METRICS.values()},
    "darshan.decode_calls": "count",
    "darshan.decode_mb": "MiB",
    "darshan.validate_calls": "count",
    "core.scan.selected_ratio": "ratio",
    "columnar.slices": "count",
    "parallel.jobstore.settles": "count",
    "io.fsync_calls": "count",
    "io.fsync_dir_calls": "count",
    "io.write_mb": "MiB",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.results_s": "s",
    "service.cache.hit_ratio": "ratio",
    "service.shed": "count",
    **{f"service.{kind}.share": "fraction" for kind in KINDS},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "fraction",
}


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with ``k`` samples beyond it: ten, or a
    quarter of the samples when there are fewer than 44 (a single slow
    job would otherwise decide the tail of a short run); the label says
    which."""
    ordered = sorted(values)
    n = len(ordered)
    k = min(10, n // 4)
    return ordered[n - 1 - k], f"p{100.0 * (n - k) / n:.1f} of n={n}, {k} beyond"


def fastest_quarter(units: list[dict], wall_key: str) -> list[dict]:
    """The fastest quarter (at least one) of a run's passes or rounds."""
    ordered = sorted(units, key=lambda u: u[wall_key])
    return ordered[: max(1, math.ceil(len(units) / 4))]


#: Times of the worker's probes (``worker.SpeedProbe``) at the reference
#: speed: the fastest seen on the machine the benchmark was built on
#: (2-core x86-64 VM, 2.1 GHz, ext4 on a virtio disk).  A CPU sample is
#: a fixed slice of CPU work; an fsync sample is 20 atomic writes (write,
#: fsync, rename, directory fsync).
PROBE_REF_S = 0.0163
FSYNC_PROBE_REF_S = 0.0040

#: Share of a serve-mix round spent in fsync at the reference speed
#: (``io.fsync_s`` of the traced run, see README.md); the rest is CPU.
SERVE_FSYNC_SHARE = 0.3


def unit_speeds(
    cpu: list[list[float]],
    fsync: list[list[float]] | None = None,
    fsync_share: float = 0.0,
) -> list[float]:
    """Each timed pass's or round's speed relative to the reference
    machine.  Probe ``k`` was taken right before unit ``k`` and probe
    ``k + 1`` right after it; a probe's slowdown is the mean of its CPU
    samples (a pass runs through slow moments as well as fast ones) and,
    weighted by ``fsync_share``, the median of its fsync samples, each
    over its reference time.  A unit's speed is one over the mean
    slowdown of its two probes."""
    slow = [statistics.fmean(p) / PROBE_REF_S for p in cpu]
    if fsync is not None:
        slow = [
            (1.0 - fsync_share) * s + fsync_share * statistics.median(f) / FSYNC_PROBE_REF_S
            for s, f in zip(slow, fsync)
        ]
    return [2.0 / (a + b) for a, b in zip(slow, slow[1:])]


def calibrate(units: list[dict], wall_key: str, job_key: str, speeds: list[float]) -> None:
    """Add each pass's or round's and each job's time at the reference
    speed (``cal``): its wall times the speed probed around its unit."""
    for u, speed in zip(units, speeds, strict=True):
        u["cal"] = u[wall_key] * speed
        for job in u["jobs"]:
            job["cal"] = job[job_key] * speed


def timings(units: list[dict], key: str, job_key: str) -> tuple[dict[str, float], str]:
    """Rates and job latencies of a run from its passes' or rounds' ``key``
    walls and its jobs' ``job_key`` times.  Each job carries ``scanned``,
    ``categorized`` and ``ok``.  Rates are the median over units (every
    unit does the same work), against bursts of load shorter than a run;
    latencies come from every good job.  Returns the metrics and the
    tail's label."""

    def rate(u: dict, field: str) -> float:
        return sum(j[field] for j in u["jobs"]) / u[key]

    latencies = [j[job_key] for u in units for j in u["jobs"] if j["ok"]]
    job_tail, label = tail(latencies)
    return {
        "scanned_per_s": statistics.median(rate(u, "scanned") for u in units),
        "categorized_per_s": statistics.median(rate(u, "categorized") for u in units),
        "jobs_per_s": statistics.median(rate(u, "ok") for u in units),
        # over every job: a serve-mix round's latencies cluster by request
        # kind, so the median of a few rounds jumps between clusters
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": job_tail,
    }, label


def kind_shares(jobs: list[dict]) -> dict[str, float]:
    """Each serve-mix request kind's share of the clients' summed job
    time (submit -> last results byte), which in a closed loop is its
    share of the round."""
    total = sum(j["done"] for j in jobs)
    return {
        kind: sum(j["done"] for j in jobs if j["kind"] == kind) / total if total else 0.0
        for kind in KINDS
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _matches(oracle_path: str, truth_path: str) -> tuple[int, int]:
    """(results matching ground truth, results) of one oracle file."""
    from repro.core.result import CategorizationResult
    from repro.synth import GroundTruth, trace_matches

    with open(truth_path, encoding="utf-8") as fh:
        truth = json.load(fh)
    good = total = 0
    with open(oracle_path, encoding="utf-8") as fh:
        for line in fh:
            result = CategorizationResult.from_dict(json.loads(line))
            total += 1
            expected = truth.get(str(result.job_id))
            if expected and trace_matches(result, GroundTruth.from_dict(expected)):
                good += 1
    return good, total


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": SRC}


def _span_metrics(spans: dict[str, Any], units: int) -> dict[str, float]:
    """Per-unit per-layer values from a tracer snapshot."""
    self_s, calls, counts = spans["self_s"], spans["calls"], spans["counts"]
    out = {metric: self_s.get(span, 0.0) / units for span, metric in SELF_METRICS.items()}
    out["darshan.decode_calls"] = calls.get("darshan.decode", 0) / units
    out["darshan.validate_calls"] = calls.get("darshan.validate", 0) / units
    out["parallel.jobstore.settles"] = calls.get("parallel.jobstore.settle", 0) / units
    out["columnar.slices"] = calls.get("columnar.slice", 0) / units
    out["io.fsync_calls"] = counts.get("io.fsync_calls", 0) / units
    out["io.fsync_dir_calls"] = counts.get("io.fsync_dir_calls", 0) / units
    out["io.write_mb"] = counts.get("io.write_bytes", 0) / units / 2**20
    return out


def _merge_spans(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    merged: dict[str, Any] = {"self_s": {}, "calls": {}, "counts": {}}
    for snap in snapshots:
        for key, table in merged.items():
            for name, value in snap[key].items():
                table[name] = table.get(name, 0) + value
    return merged


def _finish_trace(metrics: dict[str, float], wall: float, overhead: float) -> None:
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - sum(
        metrics[m] for m in SELF_METRICS.values()
    )
    metrics["trace.overhead"] = overhead
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)


# ----------------------------------------------------------------------


def _accuracy(corpora: list[dict], weights: list[int]) -> float:
    """Share of delivered results matching ground truth; corpus ``i``'s
    results were delivered ``weights[i]`` times."""
    good = total = 0
    for corpus, weight in zip(corpora, weights):
        g, t = _matches(corpus["oracle"], corpus["truth"])
        good += g * weight
        total += t * weight
    return good / total


def batch_metrics(
    workload: str, inputs: dict, report: dict, trace: bool
) -> tuple[dict[str, float], dict[str, Any]]:
    passes = report["passes"]
    checked = [
        job
        for p in [report["warmup"], *passes, *report.get("untraced", [])]
        for job in p["jobs"]
    ]
    info: dict[str, Any] = {
        "attempted": sum(j["n_selected"] for j in checked),
        "failed": sum(j["n_failures"] + j["mismatched"] for j in checked),
        "mismatched": sum(j["mismatched"] for j in checked),
        "unit": "traces",
        "probe_samples": report["probe_samples"],
    }
    if trace:
        n = len(passes)
        metrics = _span_metrics(report["spans"], n)
        metrics["darshan.decode_mb"] = sum(p["decoded"] for p in passes) / n / 2**20
        last = passes[-1]["jobs"]
        metrics["core.scan.selected_ratio"] = sum(j["n_selected"] for j in last) / sum(
            j["n_input"] for j in last
        )
        untraced = _mean([p["wall"] for p in fastest_quarter(report["untraced"], "wall")])
        traced = _mean([p["wall"] for p in fastest_quarter(passes, "wall")])
        _finish_trace(metrics, _mean([p["wall"] for p in passes]), traced / untraced - 1)
        return metrics, info
    speeds = info["speeds"] = unit_speeds(report["probe_samples"])
    calibrate(passes, "wall", "wall", speeds)
    for job in (j for p in passes for j in p["jobs"]):
        job.update(scanned=job["n_input"], categorized=job["n_results"], ok=True)
    scaled, info["tail"] = timings(passes, "cal", "cal")
    info["raw"] = timings(passes, "wall", "wall")[0]
    info["units"] = f"rates from the median of {len(passes)} passes"
    metrics = {
        # the set-up samples run before the first probe: scaled by the
        # run's median speed
        "setup_s": statistics.median(report["setup"]) * statistics.median(speeds),
        **scaled,
        "peak_rss_mb": report["rss_mb"],
        "accuracy": _accuracy(inputs["corpora"], [1] * len(inputs["corpora"])),
    }
    return metrics, info


def _job_failed(job: dict) -> bool:
    return "error" in job or job.get("status") != "done" or bool(job["mismatched"])


def _shed_total(rnd: dict) -> int:
    """The round's ``/metrics`` admission shed total (0 if it did not answer)."""
    return rnd["metrics"].get("admission", {}).get("shed", {}).get("total", 0)


def serve_metrics(
    inputs: dict, report: dict, trace: bool
) -> tuple[dict[str, float], dict[str, Any]]:
    stores = inputs["corpora"]
    rounds = report["rounds"]
    checked = [report["warmup"], *rounds]  # the warm-up round is checked too
    for r in checked:
        for j in r["jobs"]:
            j.setdefault("done", 0.0)
    checked_jobs = [j for r in checked for j in r["jobs"]]
    clients = [c for r in checked for c in r["clients"]]
    info: dict[str, Any] = {
        "attempted": len(checked_jobs),
        "failed": sum(_job_failed(j) for j in checked_jobs)
        + sum(r["hung"] or r["exit_code"] != 0 for r in checked),
        "mismatched": sum(j.get("mismatched", 0) for j in checked_jobs),
        "unit": "jobs",
        "http_requests": sum(j["requests"] for j in checked_jobs)
        + sum(c["retries"] for c in clients),
        "http_retries": sum(c["retries"] for c in clients),
        "http_shed": sum(_shed_total(r) for r in checked)
        + sum(c["shed_responses"] for c in clients),
        "errors": [j["error"] for j in checked_jobs if "error" in j][:5],
        "probe_samples": report["probe_samples"],
        "fsync_samples": report["fsync_samples"],
    }
    if trace:
        traced = [r for r in rounds if r["traced"]]
        n = len(traced)
        metrics = _span_metrics(_merge_spans([r["spans"] for r in traced]), n)
        tjobs = [j for r in traced for j in r["jobs"] if "error" not in j]
        ran = [j for j in tjobs if j["kind"] != "dedup"]
        metrics["service.submit_s"] = _mean([j["accepted"] for j in tjobs])
        metrics["service.queue_wait_s"] = _mean([j["running"] - j["accepted"] for j in ran])
        metrics["service.run_s"] = _mean([j["finished"] - j["running"] for j in ran])
        metrics["service.results_s"] = _mean([j["done"] - j["finished"] for j in tjobs])
        caches = [r["metrics"].get("cache", {}) for r in traced]
        hits = sum(c.get("hits", 0) for c in caches)
        misses = sum(c.get("misses", 0) for c in caches)
        metrics["service.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["service.shed"] = sum(_shed_total(r) for r in traced) / n
        for kind, share in kind_shares(tjobs).items():
            metrics[f"service.{kind}.share"] = share
        scanned = sum(stores[j["store"]]["n_input"] for j in ran)
        selected = sum(stores[j["store"]]["n_results"] for j in ran)
        metrics["core.scan.selected_ratio"] = selected / scanned if scanned else 0.0
        untraced = [r for r in rounds if not r["traced"]]

        def fast_wall(units: list[dict]) -> float:
            return _mean([r["loop_wall"] for r in fastest_quarter(units, "loop_wall")])

        _finish_trace(
            metrics,
            _mean([r["loop_wall"] for r in traced]),
            fast_wall(traced) / fast_wall(untraced) - 1,
        )
        return metrics, info
    speeds = info["speeds"] = unit_speeds(
        report["probe_samples"], report["fsync_samples"], SERVE_FSYNC_SHARE
    )
    calibrate(rounds, "loop_wall", "done", speeds)
    jobs = [j for r in rounds for j in r["jobs"]]
    for job in jobs:
        job.update(
            scanned=stores[job["store"]]["n_input"] if job["kind"] != "dedup" else 0,
            categorized=job.get("lines", 0),
            ok=not _job_failed(job),
        )
    good = [j for j in jobs if j["ok"]]
    scaled, info["tail"] = timings(rounds, "cal", "cal")
    info["raw"] = timings(rounds, "loop_wall", "done")[0]
    info["units"] = f"rates from the median of {len(rounds)} rounds"
    info["shares"] = kind_shares(good)
    delivered = [sum(1 for j in jobs if j["store"] == i) for i in range(len(stores))]
    metrics = {
        "setup_s": statistics.median(r["setup"] * s for r, s in zip(rounds, speeds)),
        **scaled,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "accuracy": _accuracy(stores, delivered),
    }
    return metrics, info


# ----------------------------------------------------------------------


def _run_worker(spec_path: str, timeout: float) -> None:
    """Run the timed worker in its own process group, so a timeout also
    stops the servers it started."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        env=_child_env(),
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)


def worker_deadline(seconds: float) -> float:
    """Seconds the timed worker may take.  Its work grows with
    ``--seconds``: batch runs measure about ``seconds`` after their set-up
    and warm-up pass, serve-mix rounds run up to twice their nominal
    length; the fixed part covers set-up, warm-up and server start-up."""
    return 60.0 + 4.0 * seconds


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size (tiny: self-tests)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # needs repro on the path

    inputs = workloads.prepare(
        os.path.join(HERE, ".cache"), args.workload, args.size, args.seed
    )
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        spec = {
            "workload": args.workload,
            "work": work,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "seed": args.seed,
            "size": workloads.SIZES[args.workload][args.size],
            "corpora": inputs["corpora"],
            "result": os.path.join(work, "report.json"),
        }
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        _run_worker(spec_path, worker_deadline(args.seconds))
        with open(spec["result"], encoding="utf-8") as fh:
            report = json.load(fh)
        if args.workload == "serve-mix":
            metrics, info = serve_metrics(inputs, report, bool(args.trace))
        else:
            metrics, info = batch_metrics(args.workload, inputs, report, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    correct = info["failed"] == 0
    n_input = sum(c["n_input"] for c in inputs["corpora"])
    print(
        f"perfbench {args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace}: {n_input} input traces, generated in "
        f"{inputs['generate_s']:.2f} s{' (cached)' if inputs['cached'] else ''}"
    )
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    error_rate = info["failed"] / max(info["attempted"], 1)
    print(
        f"  {'error_rate':28s} {error_rate:14.6g} fraction "
        f"({info['failed']} failed of {info['attempted']} {info['unit']} attempted, "
        f"{info['mismatched']} result lines differ from the oracle)"
    )
    if "http_requests" in info:
        print(
            f"  http: {info['http_requests']} requests, {info['http_retries']} "
            f"client retries, {info['http_shed']} shed (429/503)"
        )
    if info.get("errors"):
        print(f"  errors: {info['errors']}")
    if "tail" in info:
        print(
            f"  {info['units']}; job_tail_s over all jobs: {info['tail']}"
        )
    if "shares" in info:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in info["shares"].items())
        print(f"  share of client time by request kind: {shares}")
    for kind, key, ref in (
        ("CPU", "probe_samples", PROBE_REF_S),
        ("fsync", "fsync_samples", FSYNC_PROBE_REF_S),
    ):
        pooled = [x for probe in info.get(key) or [] for x in probe]
        if pooled:
            print(
                f"  host {kind} probe: {len(pooled)} samples, "
                f"{min(pooled) * 1e3:.1f}-{max(pooled) * 1e3:.1f} ms "
                f"(reference {ref * 1e3:.1f} ms)"
            )
    if "speeds" in info:
        speeds = ", ".join(f"{s:.3f}" for s in info["speeds"])
        print(f"  speed around each pass or round (times are scaled by it): {speeds}")
    if "raw" in info:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in info["raw"].items())
        print(f"  unscaled walls: {raw}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": info["attempted"],
                "failed": info["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
