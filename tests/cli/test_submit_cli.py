"""``mosaic submit`` / ``mosaic watch`` as real subprocesses.

The client library has its own suite (``tests/service/test_client.py``);
this pins the CLI contract on top of it: endpoint discovery via
``--data-dir``, the ``--watch --output`` flow writing the results JSONL
atomically, dedup surfacing on resubmission, and the batch-compatible
exit codes (0 done, 1 failed/unknown).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.columnar import compile_corpus
from repro.darshan import DirectorySource, save_binary
from repro.synth import FleetConfig, generate_fleet

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    base = tmp_path_factory.mktemp("submit-cli-corpus")
    fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=1.0, seed=53))
    trace_dir = base / "traces"
    trace_dir.mkdir()
    for trace in fleet.traces:
        save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
    store_path = base / "corpus.mosc"
    compile_corpus(DirectorySource(trace_dir), store_path)
    return str(store_path)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("submit-cli-data"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data-dir", data_dir, "--port", "0",
        ],
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    endpoint_path = os.path.join(data_dir, "server.json")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server died: rc={proc.returncode}")
        try:
            with open(endpoint_path, encoding="utf-8") as fh:
                if json.load(fh).get("pid") == proc.pid:
                    break
        except (OSError, json.JSONDecodeError):
            pass
        time.sleep(0.05)
    else:
        proc.kill()
        raise RuntimeError("server never published server.json")
    yield data_dir
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()


def test_submit_watch_writes_results_and_exits_zero(served, store, tmp_path):
    out = tmp_path / "results.jsonl"
    result = _cli(
        "submit", "--store", store, "--data-dir", served,
        "--watch", "--output", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert "submitted job-" in result.stdout
    assert ": done" in result.stdout
    lines = out.read_bytes().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_resubmission_reports_dedup(served, store):
    result = _cli("submit", "--store", store, "--data-dir", served)
    assert result.returncode == 0, result.stderr
    assert "deduplicated" in result.stdout


def test_watch_terminal_job_exits_by_status(served, store):
    submitted = _cli("submit", "--store", store, "--data-dir", served)
    job_id = submitted.stdout.split()[1].rstrip(":")
    result = _cli("watch", job_id, "--data-dir", served, "--quiet")
    assert result.returncode == 0, result.stderr
    assert f"{job_id}: done" in result.stdout


def test_watch_unknown_job_exits_one(served):
    result = _cli("watch", "job-nope", "--data-dir", served, "--quiet")
    assert result.returncode == 1
    assert "watch failed" in result.stderr
