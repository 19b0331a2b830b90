"""The server's one application catalog under concurrent readers.

Every fold runs on the single job thread while ``/metrics`` and
``/catalog`` are served from the event loop; one lock keeps the readers
off a half-done fold.  The test interleaves the two as densely as the
interpreter allows (a tiny thread switch interval): no read may raise,
and no read may see part of a job's fold.
"""

import dataclasses
import sys
import threading

import pytest

from repro.core import run_pipeline
from repro.service import MosaicServer
from repro.synth import FleetConfig, generate_fleet

N_APPS = 3000
JOB_SIZE = 50
#: Reader threads beside the folding one: more threads than cores.
N_READERS = 3


@pytest.fixture(scope="module")
def results():
    """``N_APPS`` results with distinct application keys, built from a
    few real categorizations so every fold adds a new catalog entry."""
    fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=1.0, seed=11))
    base = run_pipeline(fleet.traces).results
    return [
        dataclasses.replace(base[i % len(base)], uid=10_000 + i)
        for i in range(N_APPS)
    ]


def test_fold_path_and_readers_do_not_race(tmp_path, results):
    server = MosaicServer(tmp_path / "data", port=0)
    errors = []
    folded = threading.Event()

    def fold_jobs():
        try:
            for start in range(0, len(results), JOB_SIZE):
                server._fold_into_catalog(results[start:start + JOB_SIZE])
        finally:
            folded.set()

    def read_until_folded():
        n_reads = 0
        while not folded.is_set() or n_reads == 0:
            metrics = server.metrics()["catalog"]
            apps = server._catalog_payload()["apps"]
            # readers see whole jobs only: the lock spans a job's fold
            assert len(apps) % JOB_SIZE == 0
            assert metrics["n_ingested"] % JOB_SIZE == 0
            assert metrics["n_apps"] <= N_APPS
            n_reads += 1

    def recording_errors(fn):
        def run():
            try:
                fn()
            except Exception as exc:  # asserted empty by the main thread
                errors.append(exc)
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=recording_errors(fold_jobs))] + [
            threading.Thread(target=recording_errors(read_until_folded))
            for _ in range(N_READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        server._registry.close()
        server._job_executor.shutdown()

    assert errors == []
    stats = server.metrics()["catalog"]
    assert stats["n_apps"] == stats["n_ingested"] == N_APPS
    apps = server._catalog_payload()["apps"]
    assert len(apps) == N_APPS
    uids = [app["uid"] for app in apps]
    assert uids == sorted(uids)
