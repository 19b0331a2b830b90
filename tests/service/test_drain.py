"""Graceful drain and liveness: SIGTERM turns into a clean handoff.

Covers the drain ladder end to end: readiness flips while liveness
holds, submissions shed, SSE subscribers get a terminal ``drain``
event, the running job finishes (or the hard deadline escalates to the
journal-resume path), and teardown closes every in-flight writer
without leaking exceptions into the loop's handler.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import asyncio

import pytest

import repro
from repro.columnar import compile_corpus
from repro.darshan import DirectorySource, save_binary
from repro.service import MosaicServer
from repro.service.admission import AdmissionLimits
from repro.synth import FleetConfig, generate_fleet

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# -- harness (same shape as test_http_server) --------------------------
def _start(server):
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run()), daemon=True
    )
    thread.start()
    endpoint_path = os.path.join(server.data_dir, "server.json")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            with open(endpoint_path, encoding="utf-8") as fh:
                endpoint = json.load(fh)
            if endpoint.get("pid") == os.getpid():
                return thread, endpoint
        except (OSError, json.JSONDecodeError):
            pass
        time.sleep(0.02)
    raise RuntimeError("server never published server.json")


def _request(endpoint, method, path, payload=None, headers=None):
    conn = http.client.HTTPConnection(
        endpoint["host"], endpoint["port"], timeout=30
    )
    body = json.dumps(payload).encode() if payload is not None else None
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _call_on_loop(server, fn):
    server._loop.call_soon_threadsafe(fn)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    base = tmp_path_factory.mktemp("drain-corpus")
    fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=1.0, seed=47))
    trace_dir = base / "traces"
    trace_dir.mkdir()
    for trace in fleet.traces:
        save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
    store_path = base / "corpus.mosc"
    compile_corpus(DirectorySource(trace_dir), store_path)
    return str(store_path)


class _GatedExecute:
    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()

    def __call__(self, job):
        self.started.set()
        assert self.gate.wait(timeout=60), "gated job never released"
        job.n_results = 0
        job.n_failures = 0
        job.metrics = {}


def _open_sse(endpoint, job_id, headers=None):
    """A raw SSE connection; returns (conn, response) for streaming."""
    conn = http.client.HTTPConnection(
        endpoint["host"], endpoint["port"], timeout=30
    )
    conn.request("GET", f"/jobs/{job_id}/events", headers=headers or {})
    resp = conn.getresponse()
    assert resp.status == 200
    return conn, resp


def _read_event(resp, deadline_s=20):
    """Next ``data:`` JSON event from an SSE response (skips comments)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        line = resp.readline()
        if not line:
            return None
        line = line.strip()
        if line.startswith(b"data:"):
            return json.loads(line[5:].strip())
    raise TimeoutError("no SSE event before deadline")


# -- liveness vs readiness ---------------------------------------------
class TestWorkerDeath:
    def test_healthz_degrades_when_worker_task_dies(self, tmp_path):
        server = MosaicServer(tmp_path / "data", port=0)
        thread, endpoint = _start(server)
        try:
            status, data = _request(endpoint, "GET", "/healthz")
            assert (status, json.loads(data)) == (200, {"status": "ok"})
            # kill the queue consumer the way a bug would: task death
            _call_on_loop(server, server._worker_task.cancel)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, data = _request(endpoint, "GET", "/healthz")
                if status == 503:
                    break
                time.sleep(0.02)
            assert status == 503
            payload = json.loads(data)
            assert payload["status"] == "degraded"
            assert "worker" in payload["error"]
            status, _data = _request(endpoint, "GET", "/readyz")
            assert status == 503
        finally:
            _call_on_loop(server, server.request_stop)
            thread.join(timeout=30)
            assert not thread.is_alive()


# -- the drain ladder --------------------------------------------------
class TestGracefulDrain:
    def test_drain_flips_readyz_sheds_submissions_finishes_job(
        self, tmp_path, store
    ):
        server = MosaicServer(tmp_path / "data", port=0)
        gated = _GatedExecute()
        server._execute = gated
        thread, endpoint = _start(server)
        status, data = _request(endpoint, "POST", "/jobs", {"store": store})
        assert status == 202
        job_id = json.loads(data)["job_id"]
        assert gated.started.wait(timeout=10)

        sse_conn, sse_resp = _open_sse(endpoint, job_id)
        assert _read_event(sse_resp)["event"] == "subscribed"

        _call_on_loop(server, server.request_drain)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not server.draining:
            time.sleep(0.02)

        # readiness flips; liveness holds (the process is healthy,
        # just not accepting) — the split restart orchestrators need
        status, data = _request(endpoint, "GET", "/readyz")
        assert status == 503
        assert json.loads(data) == {"status": "draining"}
        status, _data = _request(endpoint, "GET", "/healthz")
        assert status == 200

        status, data = _request(endpoint, "POST", "/jobs", {"store": store})
        assert status == 503
        assert "draining" in json.loads(data)["error"]
        assert server.admission.shed_draining == 1

        # every open SSE stream got the terminal drain event, and the
        # server closed the stream right after it
        assert _read_event(sse_resp)["event"] == "drain"
        assert b"data:" not in sse_resp.read()
        sse_conn.close()

        # the in-flight job is allowed to finish; then the loop exits
        gated.gate.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert server.jobs[job_id].status == "done"
        assert server.drain_escalated is False

    def test_drain_hard_deadline_escalates_to_resume_path(
        self, tmp_path, store
    ):
        server = MosaicServer(
            tmp_path / "data",
            port=0,
            limits=AdmissionLimits(drain_timeout_s=0.4),
        )
        gated = _GatedExecute()
        server._execute = gated
        thread, endpoint = _start(server)
        status, data = _request(endpoint, "POST", "/jobs", {"store": store})
        assert status == 202
        job_id = json.loads(data)["job_id"]
        assert gated.started.wait(timeout=10)

        _call_on_loop(server, server.request_drain)
        # the job never finishes: the hard deadline must fire and the
        # loop must exit anyway, flagging the escalation
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert server.drain_escalated is True
        assert server.jobs[job_id].status == "running"  # abandoned
        gated.gate.set()  # release the stuck executor thread

    def test_second_drain_request_escalates_to_immediate_stop(
        self, tmp_path, store
    ):
        server = MosaicServer(tmp_path / "data", port=0)
        gated = _GatedExecute()
        server._execute = gated
        thread, endpoint = _start(server)
        status, _data = _request(endpoint, "POST", "/jobs", {"store": store})
        assert status == 202
        assert gated.started.wait(timeout=10)
        _call_on_loop(server, server.request_drain)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not server.draining:
            time.sleep(0.02)
        # the operator's second SIGTERM: stop now, journal covers us
        _call_on_loop(server, server.request_drain)
        thread.join(timeout=30)
        assert not thread.is_alive()
        gated.gate.set()

    def test_drain_leaves_queued_jobs_registered_for_restart(
        self, tmp_path, store
    ):
        data_dir = tmp_path / "data"
        server = MosaicServer(data_dir, port=0)
        gated = _GatedExecute()
        server._execute = gated
        thread, endpoint = _start(server)
        _status, data = _request(endpoint, "POST", "/jobs", {"store": store})
        running_id = json.loads(data)["job_id"]
        assert gated.started.wait(timeout=10)
        _status, data = _request(endpoint, "POST", "/jobs", {"store": store})
        queued_id = json.loads(data)["job_id"]

        _call_on_loop(server, server.request_drain)
        gated.gate.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert server.jobs[running_id].status == "done"
        # the queued job was *not* picked up mid-drain...
        assert server.jobs[queued_id].status == "queued"
        # ...and a fresh incarnation re-queues it from the registry
        successor = MosaicServer(data_dir, port=0)
        assert [j.job_id for j in successor._resumed_at_start] == [queued_id]


# -- teardown closes every writer cleanly (no loop-handler leaks) ------
class TestConnectionTeardown:
    def test_stop_mid_stream_closes_writers_without_leaks(
        self, tmp_path, store
    ):
        server = MosaicServer(tmp_path / "data", port=0)
        thread, endpoint = _start(server)
        loop_errors = []

        def _install_handler():
            server._loop.set_exception_handler(
                lambda _loop, ctx: loop_errors.append(ctx)
            )

        _call_on_loop(server, _install_handler)

        # one finished job to stream results from, one gated job to
        # hold an SSE subscription open
        status, data = _request(endpoint, "POST", "/jobs", {"store": store})
        assert status == 202
        done_id = json.loads(data)["job_id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _s, d = _request(endpoint, "GET", f"/jobs/{done_id}")
            if json.loads(d)["status"] == "done":
                break
            time.sleep(0.05)

        gated = _GatedExecute()
        server._execute = gated
        status, data = _request(endpoint, "POST", "/jobs", {"store": store})
        assert status == 202
        gated_id = json.loads(data)["job_id"]
        assert gated.started.wait(timeout=10)

        # SSE stream mid-flight
        sse_conn, sse_resp = _open_sse(endpoint, gated_id)
        assert _read_event(sse_resp)["event"] == "subscribed"

        # chunked /results stream mid-flight: make the payload far
        # larger than the socket buffers and *don't read it*, so the
        # server handler is parked in writer.drain() when stop lands
        server._read_results = lambda path: b"x" * (64 << 20)
        results_conn = http.client.HTTPConnection(
            endpoint["host"], endpoint["port"], timeout=30
        )
        results_conn.request("GET", f"/jobs/{done_id}/results")
        time.sleep(0.3)  # let the server fill its send buffer and block

        _call_on_loop(server, server.request_stop)
        thread.join(timeout=30)
        assert not thread.is_alive(), "stop hung with streams in flight"
        gated.gate.set()

        # both client sockets observe a closed/aborted connection
        # promptly: at most leftover frame bytes already in flight,
        # never another event
        try:
            leftover = sse_resp.read()
        except (ConnectionError, OSError):
            leftover = b""
        assert b"data:" not in leftover
        with pytest.raises((ConnectionError, http.client.HTTPException, OSError)):
            resp = results_conn.getresponse()
            resp.read()
        sse_conn.close()
        results_conn.close()

        # and nothing leaked into the loop's exception handler
        fatal = [
            ctx for ctx in loop_errors if "exception" in ctx
        ]
        assert fatal == [], fatal


# -- SIGTERM end to end (subprocess) -----------------------------------
#: Test-side launcher that holds the job at its first journal settle.
FAULT_LAUNCHER = os.path.join(os.path.dirname(__file__), "fault_launcher.py")


def _serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_held(data_dir, log_path, marker, drain_timeout):
    """Start ``mosaic serve`` whose first job stops right after its
    first journal settle flush, before that unit's commit: the launcher
    creates ``marker`` when the job is held there and lets it go on at
    a line on the process's stdin."""
    log = open(log_path, "ab")
    proc = subprocess.Popen(
        [sys.executable, FAULT_LAUNCHER, "hold", str(marker), "serve",
         "--data-dir", str(data_dir), "--port", "0",
         "--drain-timeout", str(drain_timeout)],
        stdin=subprocess.PIPE, stdout=log, stderr=subprocess.STDOUT,
        env=_serve_env(),
    )
    log.close()
    return proc


def _wait_endpoint(data_dir, proc, timeout=60.0):
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


def _wait_held(marker, proc, timeout=60.0):
    """Wait until the launcher reports the job held at its first settle."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(marker):
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early: rc={proc.returncode}")
        assert time.monotonic() < deadline, "job never reached its first settle"
        time.sleep(0.02)


def _settle_lines(journal):
    return [
        line for line in journal.read_text().splitlines()
        if line.startswith(('{"kind":"result"', '{"kind":"failure"'))
    ]


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    if proc.stdin is not None:
        proc.stdin.close()


class TestSigtermDrain:
    def test_sigterm_mid_job_drains_and_exits_zero(
        self, store, tmp_path
    ):
        """SIGTERM while a job is held mid-run: the server drains, lets
        the job finish once released, registers the outcome, and exits
        0 — no escalation needed."""
        data_dir = tmp_path / "data"
        log_path = tmp_path / "serve.log"
        marker = tmp_path / "held"
        proc = _spawn_held(data_dir, log_path, marker, drain_timeout=60)
        try:
            endpoint = _wait_endpoint(data_dir, proc)
            status, data = _request(
                endpoint, "POST", "/jobs", {"store": store}
            )
            assert status == 202
            job_id = json.loads(data)["job_id"]
            _wait_held(marker, proc)
            _s, d = _request(endpoint, "GET", f"/jobs/{job_id}")
            assert json.loads(d)["status"] == "running"
            proc.send_signal(signal.SIGTERM)
            # the drain has begun (readiness flips) with the job still
            # held; only then does the job go on
            deadline = time.monotonic() + 30
            while _request(endpoint, "GET", "/readyz")[0] != 503:
                assert time.monotonic() < deadline, "drain never began"
                time.sleep(0.02)
            proc.stdin.write(b"release\n")
            proc.stdin.flush()
            assert proc.wait(timeout=60) == 0, log_path.read_text()
        finally:
            _stop(proc)
        # the drained incarnation durably finished the job
        registry = (data_dir / "jobs.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in registry if line.strip()]
        finished = [e for e in events if e["event"] == "finished"]
        assert [(e["job_id"], e["status"]) for e in finished] == [(job_id, "done")]

    def test_sigterm_past_hard_deadline_escalates_and_resumes(
        self, store, tmp_path
    ):
        """A job held past the drain budget: the server exits with the
        escalation code and a restart resumes the job from its journal
        to completion."""
        data_dir = tmp_path / "data"
        log_path = tmp_path / "serve.log"
        marker = tmp_path / "held"
        proc = _spawn_held(data_dir, log_path, marker, drain_timeout=0.5)
        try:
            endpoint = _wait_endpoint(data_dir, proc)
            status, data = _request(
                endpoint, "POST", "/jobs", {"store": store}
            )
            assert status == 202
            job_id = json.loads(data)["job_id"]
            _wait_held(marker, proc)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            assert rc == 75, (rc, log_path.read_text())
        finally:
            _stop(proc)
        # the abandoned job left exactly its one held settle behind
        journal = data_dir / "jobs" / job_id / "journal.jsonl"
        assert len(_settle_lines(journal)) == 1
        # restart: the abandoned job resumes from its journal
        log = open(log_path, "ab")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "serve",
             "--data-dir", str(data_dir), "--port", "0"],
            stdout=log, stderr=subprocess.STDOUT, env=_serve_env(),
        )
        log.close()
        try:
            endpoint = _wait_endpoint(data_dir, proc)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                _s, d = _request(endpoint, "GET", f"/jobs/{job_id}")
                job = json.loads(d)
                if job["status"] not in ("queued", "running"):
                    break
                time.sleep(0.1)
            assert job["status"] == "done", job
            assert len(_settle_lines(journal)) == job["n_results"] + job["n_failures"]
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
