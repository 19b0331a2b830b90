"""Crash-resume acceptance: ``kill -9`` a serving ``mosaic serve``
process mid-job, restart it on the same data dir, and require the
resumed job to finish byte-identical to the batch oracle with no jobs
lost or duplicated.

This is the integration point of three layers built separately: the
registry replay (re-queues the orphaned job), the JobStore journal
(resumes settled per-trace outcomes instead of recomputing), and the
journal lock's stale-pid detection (the dead server's sidecar must not
fence out its successor).
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.columnar import compile_corpus
from repro.core import run_pipeline_store, save_results_jsonl
from repro.darshan import DirectorySource, save_binary
from repro.parallel import ParallelConfig
from repro.synth import FleetConfig, generate_fleet

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


#: Test-side launcher that kills the server at an exact journal settle.
FAULT_LAUNCHER = os.path.join(os.path.dirname(__file__), "fault_launcher.py")


def _serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(data_dir, log_path, exit_after_settles=None):
    """Start ``mosaic serve``; with ``exit_after_settles=N`` it dies
    (exit 137, as under ``kill -9``) right after the Nth journal settle
    line is flushed, before that unit's commit."""
    entry = ["-m", "repro.cli.main"]
    if exit_after_settles is not None:
        entry = [FAULT_LAUNCHER, "exit", str(exit_after_settles)]
    log = open(log_path, "ab")
    proc = subprocess.Popen(
        [sys.executable, *entry, "serve",
         "--data-dir", str(data_dir), "--port", "0"],
        stdout=log,
        stderr=subprocess.STDOUT,
        env=_serve_env(),
    )
    log.close()
    return proc


def _wait_endpoint(data_dir, proc, timeout=60.0):
    """Wait for ``proc``'s incarnation to publish server.json."""
    endpoint_path = os.path.join(str(data_dir), "server.json")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early: rc={proc.returncode}")
        try:
            with open(endpoint_path, encoding="utf-8") as fh:
                endpoint = json.load(fh)
            if endpoint.get("pid") == proc.pid:
                return endpoint
        except (OSError, json.JSONDecodeError):
            pass
        time.sleep(0.05)
    raise RuntimeError("server never published server.json")


def _request(endpoint, method, path, payload=None):
    conn = http.client.HTTPConnection(
        endpoint["host"], endpoint["port"], timeout=60
    )
    body = json.dumps(payload).encode() if payload is not None else None
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _journal_outcomes(journal_path):
    """Settled outcome lines (full lines past the header)."""
    try:
        with open(journal_path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return 0
    complete = raw.rsplit(b"\n", 1)[0].split(b"\n") if raw else []
    return max(0, len([l for l in complete if l.strip()]) - 1)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("resume-corpus")
    fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=1.0, seed=29))
    trace_dir = base / "traces"
    trace_dir.mkdir()
    for trace in fleet.traces:
        save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
    store_path = base / "corpus.mosc"
    compile_corpus(DirectorySource(trace_dir), store_path)
    batch = run_pipeline_store(
        str(store_path), parallel=ParallelConfig(max_workers=0)
    )
    save_results_jsonl(batch.results, str(base / "batch.jsonl"))
    return {
        "store": str(store_path),
        "batch_bytes": (base / "batch.jsonl").read_bytes(),
    }


class TestKillResume:
    def test_sigkill_mid_job_resumes_byte_identical(self, corpus, tmp_path):
        data_dir = tmp_path / "data"
        journal = data_dir / "jobs" / "job-000001" / "journal.jsonl"
        killed_at = 3

        # -- first incarnation: dies right after the 3rd settle line ----
        proc = _spawn(
            data_dir, tmp_path / "server-1.log", exit_after_settles=killed_at
        )
        try:
            endpoint = _wait_endpoint(data_dir, proc)
            status, data = _request(
                endpoint, "POST", "/jobs", {"store": corpus["store"]}
            )
            assert status == 202
            assert json.loads(data)["job_id"] == "job-000001"
            assert proc.wait(timeout=60) == 137
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)

        assert _journal_outcomes(journal) == killed_at
        survivors = [
            json.loads(l)["job_id"]
            for l in journal.read_bytes().decode().splitlines()[1:]
        ]
        assert not (data_dir / "jobs" / "job-000001" / "results.jsonl").exists()

        # -- second incarnation: full speed, must resume on its own ----
        proc = _spawn(data_dir, tmp_path / "server-2.log")
        try:
            endpoint = _wait_endpoint(data_dir, proc)
            deadline = time.monotonic() + 120
            while True:
                _status, data = _request(endpoint, "GET", "/jobs/job-000001")
                job = json.loads(data)
                if job["status"] not in ("queued", "running"):
                    break
                assert time.monotonic() < deadline, "resumed job never settled"
                time.sleep(0.1)
            assert job["status"] == "done", job

            # no duplicated or lost jobs across the crash
            _status, data = _request(endpoint, "GET", "/jobs")
            jobs = json.loads(data)["jobs"]
            assert [j["job_id"] for j in jobs] == ["job-000001"]

            # the journal was resumed, not restarted: the outcomes that
            # survived the kill were never re-journaled
            lines = journal.read_bytes().decode().splitlines()
            outcomes = [json.loads(l) for l in lines[1:] if l.strip()]
            trace_ids = [o["job_id"] for o in outcomes]
            assert len(trace_ids) == len(set(trace_ids)), "duplicated outcomes"
            assert trace_ids[:killed_at] == survivors
            assert len(trace_ids) == job["n_results"] + job["n_failures"]

            status, data = _request(
                endpoint, "GET", "/jobs/job-000001/results"
            )
            assert status == 200
            assert data == corpus["batch_bytes"]

            # registry: one submitted + one finished event, nothing else
            events = [
                json.loads(l)
                for l in (data_dir / "jobs.jsonl").read_text().splitlines()
                if l.strip()
            ]
            assert [e["event"] for e in events] == ["submitted", "finished"]
            assert events[1]["status"] == "done"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
