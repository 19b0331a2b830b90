"""Seeded inputs for the three benchmark workloads, cached on disk.

Everything here runs before any timing: fleet generation, ``.mosd``
writing, compiling serve-mix's stores, and the oracle outputs every timed
run is compared against byte for byte.  One cache entry holds the inputs
of one (workload, size, seed); the program under test only ever sees the
generated files.

Every corpus holds *seeded executions* of a *fixed application
population*: the applications (cohort specs, their run counts and their
runtimes) come from ``generate_fleet`` at :data:`POPULATION_SEED`,
and ``--seed`` draws everything else about every execution, the
corrupted copies and the file order.  A few heavy applications carry
most of the cost of a fleet in the paper's proportions; redrawing them
per seed would make the work of a run depend on one or two random specs
rather than on the code being measured.

* ``paper-stream`` — a fleet in the paper's proportions (many runs per
  application, 32% corrupted inputs) written to one directory.  Oracle:
  ``run_pipeline_stream`` over that directory.
* ``ckpt-store`` — metadata-dense corpora, one run per application, half
  of them from the checkpointing cohorts.  Oracle: the *streaming*
  path's output, so the timed store path is also checked against it.
* ``serve-mix`` — compiled stores in the paper's application mix, one
  run per application, no trace CRC32 shared by two traces of a seed's
  stores.  Oracle: ``run_pipeline_store`` per store.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from typing import Any

import numpy as np

from repro.columnar import compile_corpus
from repro.columnar.store import attach
from repro.core import run_pipeline_store, run_pipeline_stream
from repro.core.result import save_results_jsonl
from repro.darshan.io_binary import save_binary
from repro.darshan.source import DirectorySource
from repro.synth import (
    BLUE_WATERS_2019,
    FleetConfig,
    cohort_by_name,
    corrupt_trace,
    generate_fleet,
    generate_run,
)

#: Input sizes per workload.  ``full`` is what the benchmark measures;
#: ``tiny`` keeps the self-tests fast.  ``corpora`` counts independent
#: corpora (directories or stores), each categorized as its own job.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "paper-stream": {
        "full": {"corpora": 1, "n_apps": 100, "mean_runs": 48.0},
        "tiny": {"corpora": 1, "n_apps": 20, "mean_runs": 4.0},
    },
    "ckpt-store": {
        "full": {"corpora": 6, "n_apps": 16, "mean_runs": 1.0},
        "tiny": {"corpora": 2, "n_apps": 8, "mean_runs": 1.0},
    },
    "serve-mix": {
        "full": {"corpora": 4, "n_apps": 300, "mean_runs": 1.0, "warm": 2, "dedup": 2},
        "tiny": {"corpora": 2, "n_apps": 24, "mean_runs": 1.0, "warm": 1, "dedup": 1},
    },
}

#: Seed of every workload's application population (``FleetConfig``'s
#: default).  The corpora of one workload share the population and differ
#: in their executions.
POPULATION_SEED = 20190101

#: Application shares of the metadata-dense ckpt-store fleet: half from
#: the checkpointing cohorts (>= 50 metadata requests/s), the rest from
#: cohorts that keep temporality and periodicity busy.
CKPT_SHARES: dict[str, float] = {
    "rcw_ckpt_periodic": 25.0,
    "rcw_ckpt_hidden": 25.0,
    "rcw": 12.5,
    "r_only": 12.5,
    "sim_per_w": 12.5,
    "sim_hidden": 12.5,
}

#: Cache entries kept per (workload, size); older seeds are evicted.
CACHE_KEEP = 12


def ckpt_profile() -> tuple:
    return tuple(
        dataclasses.replace(cohort_by_name(name), app_share=share, run_share=share)
        for name, share in CKPT_SHARES.items()
    )


def one_run_profile() -> tuple:
    """The paper's application mix with every application run once."""
    return tuple(
        dataclasses.replace(c, run_share=c.app_share) for c in BLUE_WATERS_2019
    )


def population(workload: str, size: dict[str, Any]) -> Any:
    """The workload's fixed application population (a ``FleetResult``)."""
    profile = {
        "paper-stream": BLUE_WATERS_2019,
        "ckpt-store": ckpt_profile(),
        "serve-mix": one_run_profile(),
    }[workload]
    return generate_fleet(
        FleetConfig(
            n_apps=size["n_apps"],
            mean_runs=size["mean_runs"],
            corruption_fraction=0.0,
            seed=POPULATION_SEED,
            profile=profile,
        )
    )


def seeded_executions(
    apps: Any, seed: int, corruption_fraction: float = 0.32
) -> tuple[list, dict[int, Any]]:
    """Fresh executions of a population's runs, drawn from ``seed``.

    Every run of ``apps`` (a ``FleetResult``) is regenerated with its
    application's median runtime and everything else (volumes, timings,
    crashes) redrawn, then corrupted copies are added and the order
    shuffled the way ``generate_fleet`` does.  Returns (traces, job id ->
    ground truth).
    """
    rng = np.random.default_rng(seed)
    runs = sorted(apps.traces, key=lambda t: t.meta.job_id)
    runtimes: dict[tuple[int, str], list[float]] = {}
    for run in runs:
        runtimes.setdefault(run.meta.app_key, []).append(run.meta.run_time)
    traces = []
    truth: dict[int, Any] = {}
    for run in runs:
        spec = apps.apps[run.meta.app_key]
        # every run of an application lasts its median population runtime:
        # metadata load scales with runtime, and the run the pipeline keeps
        # per application (the heaviest by bytes) is a seeded pick, so
        # differing runtimes would make its cost a lottery
        runtime = float(np.median(runtimes[run.meta.app_key]))
        spec = dataclasses.replace(spec, runtime_lo=runtime, runtime_hi=runtime)
        job_id = len(traces) + 1
        traces.append(generate_run(spec, job_id, rng))
        truth[job_id] = spec.truth
    n_valid = len(traces)
    frac = corruption_fraction
    n_corrupt = int(round(frac / (1.0 - frac) * n_valid))
    for victim in rng.choice(n_valid, size=n_corrupt, replace=True):
        bad = corrupt_trace(traces[int(victim)], rng)
        bad.meta.job_id = len(traces) + 1
        traces.append(bad)
    order = rng.permutation(len(traces))
    return [traces[int(i)] for i in order], truth


def _save_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _write_corpus(directory: str, apps: Any, entropy: list[int]) -> tuple[int, dict]:
    """Write one corpus of seeded executions as ``.mosd`` files; returns
    (input traces, job id -> ground truth)."""
    sub_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
    traces, truth = seeded_executions(apps, sub_seed)
    os.makedirs(directory)
    for trace in traces:
        save_binary(trace, os.path.join(directory, f"job{trace.meta.job_id:08d}.mosd"))
    return len(traces), truth


def _build(entry: str, workload: str, seed: int, size: dict[str, Any]) -> dict:
    """Write every corpus of one workload plus its oracle and truth."""
    apps = population(workload, size)
    corpora = []
    seen_crcs: set[int] = set()
    for i in range(size["corpora"]):
        directory = os.path.join(entry, f"traces-{i}")
        n_input, truth = _write_corpus(directory, apps, [seed, i])
        corpus: dict[str, Any] = {}
        if workload == "serve-mix":
            store = os.path.join(entry, f"store-{i}.mosc")
            attempt = 0
            while True:
                compile_corpus(DirectorySource(directory), store)
                shutil.rmtree(directory)
                crcs = [int(c) for c in attach(store).trace_crcs]
                if len(set(crcs)) == len(crcs) and seen_crcs.isdisjoint(crcs):
                    break
                # The service's result cache is keyed by a trace's CRC32
                # alone, so two traces sharing one are served each other's
                # result (a program bug).  Redraw the corpus so that no
                # seed fails on it (one seed in the first few dozen tried).
                attempt += 1
                n_input, truth = _write_corpus(directory, apps, [seed, i, attempt])
            seen_crcs.update(crcs)
            result = run_pipeline_store(store)
            corpus["store"] = os.path.basename(store)
        else:
            result = run_pipeline_stream(DirectorySource(directory))
            corpus["traces"] = os.path.basename(directory)
        corpus["n_input"] = n_input
        corpus["oracle"] = f"oracle-{i}.jsonl"
        corpus["truth"] = f"truth-{i}.json"
        corpus["n_results"] = len(result.results)
        save_results_jsonl(result.results, os.path.join(entry, corpus["oracle"]))
        _save_json(
            os.path.join(entry, corpus["truth"]),
            {str(job_id): t.to_dict() for job_id, t in truth.items()},
        )
        corpora.append(corpus)
    return {"corpora": corpora}


def _evict(cache_root: str, prefix: str, keep: str) -> None:
    """Drop all but the newest :data:`CACHE_KEEP` entries of one kind."""
    entries = sorted(
        (
            os.path.join(cache_root, name)
            for name in os.listdir(cache_root)
            if name.startswith(prefix) and ".tmp-" not in name
        ),
        key=os.path.getmtime,
        reverse=True,
    )
    for path in entries[CACHE_KEEP:]:
        if path != keep:
            shutil.rmtree(path, ignore_errors=True)


def prepare(cache_root: str, workload: str, size_name: str, seed: int) -> dict:
    """Inputs of one (workload, size, seed), generated once and cached.

    Returns the entry's ``meta.json`` with absolute paths, plus ``path``,
    ``generate_s`` (when the entry was built) and ``cached``.
    """
    size = SIZES[workload][size_name]
    prefix = f"{workload}-{size_name}-"
    entry = os.path.join(cache_root, f"{prefix}s{seed}")
    meta_path = os.path.join(entry, "meta.json")
    cached = os.path.exists(meta_path)
    if not cached:
        os.makedirs(cache_root, exist_ok=True)
        tmp = f"{entry}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        try:
            t0 = time.perf_counter()
            meta = _build(tmp, workload, seed, size)
            meta["generate_s"] = time.perf_counter() - t0
            meta["size"] = size
            _save_json(os.path.join(tmp, "meta.json"), meta)
            shutil.rmtree(entry, ignore_errors=True)
            os.rename(tmp, entry)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    else:
        os.utime(entry)
    _evict(cache_root, prefix, entry)
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    for corpus in meta["corpora"]:
        for key in ("traces", "store", "oracle", "truth"):
            if key in corpus:
                corpus[key] = os.path.join(entry, corpus[key])
    meta.update(path=entry, cached=cached)
    return meta
