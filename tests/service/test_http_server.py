"""End-to-end tests for the Mosaic categorization server.

The server runs in-process on an ephemeral port (one asyncio loop per
daemon thread), exercised over real HTTP with stdlib ``http.client`` —
the same wire a remote submitter would use.  The oracle throughout is
the batch CLI path: a served job's results must be byte-identical to
``run_pipeline_store`` over the same corpus.
"""

import errno
import http.client
import json
import os
import threading
import time

import asyncio

import pytest

from repro.cli.main import main as cli_main
from repro.columnar import compile_corpus
from repro.core import run_pipeline_store, save_results_jsonl
from repro.core.result import CategorizationResult
from repro.darshan import DirectorySource, InMemorySource, save_binary
from repro.io import scoped_io
from repro.parallel import ParallelConfig
from repro.parallel.journal import JournalWriter
from repro.service import MosaicServer
from repro.service.server import JobRecord
from repro.synth import FleetConfig, generate_fleet
from repro.testing import StorageChaos

from fault_launcher import HoldAtFirstSettle

SERIAL = ParallelConfig(max_workers=0)


# -- harness -----------------------------------------------------------
def _start(server):
    """Run ``server`` on a daemon thread; return once it publishes its
    ephemeral endpoint (``<data>/server.json``)."""
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


def _shutdown(server, thread):
    loop = server._loop
    if loop is not None and not loop.is_closed():
        loop.call_soon_threadsafe(server.request_stop)
    thread.join(timeout=30)
    assert not thread.is_alive(), "server thread failed to stop"


def _request(endpoint, method, path, payload=None, raw_body=None):
    conn = http.client.HTTPConnection(
        endpoint["host"], endpoint["port"], timeout=60
    )
    body = raw_body
    if payload is not None:
        body = json.dumps(payload).encode()
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _submit(endpoint, payload):
    status, data = _request(endpoint, "POST", "/jobs", payload)
    assert status == 202, data
    return json.loads(data)["job_id"]


def _wait_terminal(endpoint, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, data = _request(endpoint, "GET", f"/jobs/{job_id}")
        job = json.loads(data)
        if job["status"] not in ("queued", "running"):
            return job
        time.sleep(0.05)
    raise RuntimeError(f"{job_id} still running after {timeout}s")


# -- fixtures ----------------------------------------------------------
@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A compiled store plus the batch-path oracle bytes."""
    base = tmp_path_factory.mktemp("service-corpus")
    fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=1.5, seed=13))
    trace_dir = base / "traces"
    trace_dir.mkdir()
    for trace in fleet.traces:
        save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
    store_path = base / "corpus.mosc"
    compile_corpus(DirectorySource(trace_dir), store_path)
    batch = run_pipeline_store(str(store_path), parallel=SERIAL)
    save_results_jsonl(batch.results, str(base / "batch.jsonl"))
    return {
        "trace_dir": str(trace_dir),
        "store": str(store_path),
        "batch_bytes": (base / "batch.jsonl").read_bytes(),
        "n_results": batch.n_categorized,
    }


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One long-lived server shared by the happy-path flow tests."""
    data_dir = tmp_path_factory.mktemp("service-data")
    server = MosaicServer(data_dir, port=0)
    thread, endpoint = _start(server)
    yield server, endpoint
    _shutdown(server, thread)


# -- request validation ------------------------------------------------
class TestValidation:
    def test_healthz(self, service):
        _server, endpoint = service
        status, data = _request(endpoint, "GET", "/healthz")
        assert status == 200
        assert json.loads(data) == {"status": "ok"}

    def test_unknown_route_404(self, service):
        _server, endpoint = service
        status, _ = _request(endpoint, "GET", "/nope")
        assert status == 404

    def test_unknown_job_404(self, service):
        _server, endpoint = service
        for suffix in ("", "/results", "/events"):
            status, _ = _request(endpoint, "GET", f"/jobs/job-999999{suffix}")
            assert status == 404

    def test_submit_requires_exactly_one_source(self, service, corpus):
        _server, endpoint = service
        for payload in (
            {},
            {"store": corpus["store"], "traces": corpus["trace_dir"]},
        ):
            status, data = _request(endpoint, "POST", "/jobs", payload)
            assert status == 400
            assert "exactly one" in json.loads(data)["error"]

    def test_submit_rejects_missing_source(self, service):
        _server, endpoint = service
        status, data = _request(
            endpoint, "POST", "/jobs", {"store": "/no/such/corpus.mosc"}
        )
        assert status == 400
        assert "no store" in json.loads(data)["error"]

    def test_submit_rejects_non_string_source(self, service):
        # a non-string source is refused at the door, never coerced to a
        # path under the server's working directory and queued
        _server, endpoint = service
        _status, data = _request(endpoint, "GET", "/jobs")
        n_jobs = len(json.loads(data)["jobs"])
        for name in ("store", "traces"):
            for value in (5, True, [], {}):
                status, data = _request(endpoint, "POST", "/jobs", {name: value})
                assert status == 400, (name, value)
                assert "non-empty string" in json.loads(data)["error"]
        _status, data = _request(endpoint, "GET", "/jobs")
        assert len(json.loads(data)["jobs"]) == n_jobs

    def test_submit_rejects_bad_budget(self, service, corpus):
        _server, endpoint = service
        for budget in ({"max_ops": -1}, {"bogus_knob": 3}):
            status, data = _request(
                endpoint,
                "POST",
                "/jobs",
                {"store": corpus["store"], "budget": budget},
            )
            assert status == 400
            assert "bad budget" in json.loads(data)["error"]

    def test_submit_rejects_non_json_body(self, service):
        _server, endpoint = service
        status, _ = _request(
            endpoint, "POST", "/jobs", raw_body=b"not json at all"
        )
        assert status == 400

    def test_submit_rejects_body_that_is_not_an_object(self, service):
        _server, endpoint = service
        for body in (b"[]", b"1", b'"x"', b"null"):
            status, data = _request(endpoint, "POST", "/jobs", raw_body=body)
            assert status == 400, body
            assert "JSON object" in json.loads(data)["error"]

    def test_submit_rejects_non_boolean_repair(self, service, corpus):
        _server, endpoint = service
        for repair in ("false", 0, None):
            status, data = _request(
                endpoint,
                "POST",
                "/jobs",
                {"store": corpus["store"], "repair": repair},
            )
            assert status == 400, repair
            assert "repair" in json.loads(data)["error"]

    def test_oversized_body_413(self, service):
        _server, endpoint = service
        status, _ = _request(
            endpoint, "POST", "/jobs", raw_body=b"x" * ((1 << 20) + 1)
        )
        assert status == 413


# -- the service flow (ordered within the class) -----------------------
class TestServiceFlow:
    def test_served_results_byte_identical_to_batch(self, service, corpus):
        _server, endpoint = service
        job_id = _submit(endpoint, {"store": corpus["store"]})
        job = _wait_terminal(endpoint, job_id)
        assert job["status"] == "done", job
        assert job["n_results"] == corpus["n_results"]
        status, data = _request(endpoint, "GET", f"/jobs/{job_id}/results")
        assert status == 200
        assert data == corpus["batch_bytes"]

    def test_resubmission_is_cache_served(self, service, corpus):
        _server, endpoint = service
        _status, data = _request(endpoint, "GET", "/metrics")
        before = json.loads(data)["cache"]
        # the first job ran all-miss; its puts must now serve a re-run
        assert before["misses"] > 0

        job_id = _submit(endpoint, {"store": corpus["store"]})
        job = _wait_terminal(endpoint, job_id)
        assert job["status"] == "done"

        _status, data = _request(endpoint, "GET", "/metrics")
        after = json.loads(data)["cache"]
        served = after["hits"] - before["hits"]
        looked_up = served + (after["misses"] - before["misses"])
        assert looked_up > 0
        assert served >= 0.9 * looked_up

        status, data = _request(endpoint, "GET", f"/jobs/{job_id}/results")
        assert status == 200
        assert data == corpus["batch_bytes"]

    def test_job_listing_and_metrics_shape(self, service, corpus):
        _server, endpoint = service
        _status, data = _request(endpoint, "GET", "/jobs")
        jobs = json.loads(data)["jobs"]
        assert [j["job_id"] for j in jobs] == sorted(j["job_id"] for j in jobs)
        assert all(j["status"] == "done" for j in jobs)

        _status, data = _request(endpoint, "GET", "/metrics")
        metrics = json.loads(data)
        assert metrics["queue_depth"] == 0
        assert metrics["jobs"]["done"] == len(jobs)
        assert 0.0 <= metrics["cache"]["hit_rate"] <= 1.0
        assert metrics["pipeline"], "pipeline counters never aggregated"

    def test_catalog_endpoint(self, service, corpus):
        _server, endpoint = service
        status, data = _request(endpoint, "GET", "/catalog")
        assert status == 200
        catalog = json.loads(data)
        assert catalog["n_apps"] == 24
        for app in catalog["apps"]:
            assert app["n_runs"] >= 1
            assert 0.0 <= app["stability"] <= 1.0

    def test_events_replay_for_terminal_job(self, service):
        _server, endpoint = service
        _status, data = _request(endpoint, "GET", "/jobs")
        job_id = json.loads(data)["jobs"][0]["job_id"]
        status, data = _request(endpoint, "GET", f"/jobs/{job_id}/events")
        assert status == 200
        assert data == (
            b'data: {"event":"finished","status":"done"}\n\n'
        )

    def test_trace_directory_job(self, service, corpus):
        """The stream path (``traces`` submissions) serves too."""
        _server, endpoint = service
        job_id = _submit(endpoint, {"traces": corpus["trace_dir"]})
        job = _wait_terminal(endpoint, job_id)
        assert job["status"] == "done"
        status, data = _request(endpoint, "GET", f"/jobs/{job_id}/results")
        assert status == 200
        assert data == corpus["batch_bytes"]


# -- warm folds ----------------------------------------------------------
def _run_jobs_into(endpoint, reference, jobs):
    """Run ``(store, idempotency_key)`` jobs in order, folding each one's
    served results, fully rehydrated, into ``reference``'s catalog."""
    for store, key in jobs:
        job_id = _submit(endpoint, {"store": str(store), "idempotency_key": key})
        job = _wait_terminal(endpoint, job_id)
        assert job["status"] == "done", job
        _status, data = _request(endpoint, "GET", f"/jobs/{job_id}/results")
        reference._fold_into_catalog([
            CategorizationResult.from_json_line(line)
            for line in data.decode().splitlines()
        ])
        yield job


def _assert_catalog_matches(endpoint, reference):
    _status, data = _request(endpoint, "GET", "/catalog")
    assert json.loads(data) == reference._catalog_payload()
    _status, data = _request(endpoint, "GET", "/metrics")
    assert json.loads(data)["catalog"] == reference.metrics()["catalog"]


class TestWarmFolds:
    def test_catalog_of_hits_equals_catalog_of_rehydrated_results(
        self, tmp_path
    ):
        """Cold, warm and deduplicated jobs over two stores that share
        applications, then warm jobs on a restarted server (whose catalog
        starts empty, so hit records become the references): each
        server's ``/catalog`` body and ``/metrics`` catalog block equal
        those of a catalog folded from fully rehydrated results of the
        same jobs, in the same order."""
        fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=2.0, seed=31))
        full, half = tmp_path / "all.mosc", tmp_path / "half.mosc"
        compile_corpus(InMemorySource(fleet.traces), full)
        compile_corpus(InMemorySource(fleet.traces[: len(fleet.traces) // 2]), half)

        server = MosaicServer(tmp_path / "data", port=0)
        reference = MosaicServer(tmp_path / "reference", port=0)
        thread, endpoint = _start(server)
        try:
            jobs = [(full, "k0"), (half, "k1"), (full, "k2"), (half, "k3")]
            done = list(_run_jobs_into(endpoint, reference, jobs))
            for job in done[2:]:
                assert job["metrics"]["n_cache_hits"] == job["n_results"]
            # a deduplicated resubmission runs nothing and folds nothing
            status, data = _request(
                endpoint, "POST", "/jobs", {"store": str(full), "idempotency_key": "k0"}
            )
            assert status == 200 and json.loads(data)["deduplicated"]
            _assert_catalog_matches(endpoint, reference)
        finally:
            _shutdown(server, thread)
        runs = {app["n_runs"] for app in reference._catalog_payload()["apps"]}
        assert runs == {2, 4}

        restarted = MosaicServer(tmp_path / "data", port=0)
        reference = MosaicServer(tmp_path / "reference-restarted", port=0)
        thread, endpoint = _start(restarted)
        try:
            jobs = [(half, "k4"), (full, "k5")]
            for job in _run_jobs_into(endpoint, reference, jobs):
                assert job["metrics"]["n_cache_hits"] == job["n_results"]
            _assert_catalog_matches(endpoint, reference)
        finally:
            _shutdown(restarted, thread)


# -- live SSE ----------------------------------------------------------
class TestEvents:
    def test_live_settle_stream(self, corpus, tmp_path):
        """A subscriber that joins while the job is held at its first
        journal settle (before any commit) sees the whole live stream:
        ``subscribed``, one ``result`` per selected trace in seq order,
        then ``finished``."""
        server = MosaicServer(tmp_path / "data", port=0)
        thread, endpoint = _start(server)
        hold = HoldAtFirstSettle()
        try:
            with scoped_io(hold):
                job_id = _submit(endpoint, {"store": corpus["store"]})
                assert hold.held.wait(timeout=60), "job never reached a settle"
                conn = http.client.HTTPConnection(
                    endpoint["host"], endpoint["port"], timeout=120
                )
                try:
                    conn.request("GET", f"/jobs/{job_id}/events")
                    resp = conn.getresponse()
                    assert resp.status == 200
                    events = []
                    while not events or events[-1]["event"] != "finished":
                        line = resp.readline()
                        assert line, f"stream closed early after {events}"
                        if line.startswith(b"data: "):
                            events.append(json.loads(line[len(b"data: ") :]))
                            if len(events) == 1:
                                # subscribed while held: now let it run
                                hold.release()
                finally:
                    conn.close()
            n = corpus["n_results"]
            job_ids = [
                json.loads(line)["job_id"]
                for line in corpus["batch_bytes"].decode().splitlines()
            ]
            assert events[0] == {"event": "subscribed", "status": "running"}
            assert events[-1] == {"event": "finished", "status": "done"}
            settles = events[1:-1]
            assert [e["event"] for e in settles] == ["result"] * n
            assert [e["seq"] for e in settles] == list(range(1, n + 1))
            assert sorted(e["trace_job_id"] for e in settles) == sorted(job_ids)
        finally:
            hold.release()
            _shutdown(server, thread)

    def test_replay_of_a_running_job_stops_at_committed_seq(self, tmp_path):
        """A running job's journal may hold settle lines its store has
        not committed yet: ``Last-Event-ID`` replay must stop at the
        last committed one, and the rest go out once a commit covers
        them."""
        server = MosaicServer(tmp_path / "data", port=0)
        thread, endpoint = _start(server)
        job_id = "job-000042"
        try:
            # a job mid-run: five settle lines journaled, three committed
            server.jobs[job_id] = JobRecord(
                job_id=job_id, kind="store", path="/x.mosc", status="running"
            )
            job_dir = server._job_dir(job_id)
            os.makedirs(job_dir)
            with JournalWriter(os.path.join(job_dir, "journal.jsonl")) as journal:
                journal.write_header(n_selected=5)
                for trace in range(5):
                    journal.record_result(trace, json.dumps({"job_id": trace}))
            server._publish(job_id, {"event": "result", "trace_job_id": 2, "seq": 3})
            deadline = time.monotonic() + 30
            while server._committed_seq.get(job_id) != 3:
                assert time.monotonic() < deadline
                time.sleep(0.01)

            conn = http.client.HTTPConnection(
                endpoint["host"], endpoint["port"], timeout=60
            )
            try:
                conn.request(
                    "GET", f"/jobs/{job_id}/events", headers={"Last-Event-ID": "0"}
                )
                resp = conn.getresponse()
                assert resp.status == 200

                def frame():
                    lines = []
                    while True:
                        line = resp.readline()
                        assert line, "stream closed early"
                        if line == b"\n":
                            return lines
                        lines.append(line.rstrip(b"\n"))

                assert frame()[0].startswith(b'data: {"event":"subscribed"')
                assert [frame()[0] for _ in range(3)] == [
                    b"id: 1", b"id: 2", b"id: 3"
                ]
                # a marker published now arrives before anything past the
                # committed seq: the replay stopped at 3
                server._publish(job_id, {"event": "running"})
                assert frame() == [b'data: {"event":"running"}']
                # the commit covering settles 4 and 5 publishes seq 5; the
                # gap below it is filled from the journal
                server._publish(job_id, {"event": "result", "trace_job_id": 4, "seq": 5})
                assert [frame()[0] for _ in range(2)] == [b"id: 4", b"id: 5"]
                server._publish(job_id, {"event": "finished", "status": "done"})
                assert frame() == [b'data: {"event":"finished","status":"done"}']
            finally:
                conn.close()
        finally:
            _shutdown(server, thread)


# -- storage exhaustion ------------------------------------------------
class _JobsDirChaos(StorageChaos):
    """Faults scoped to paths under the chaos root; the registry and
    endpoint file (outside ``jobs/``) stay healthy, as a filled data
    volume distinct from the server's own state would."""

    def _check(self, op, path):
        p = os.path.abspath(str(path))
        if p != self.root and not p.startswith(self.root + os.sep):
            return None
        return super()._check(op, path)


class TestStorageFailure:
    def test_enospc_job_reports_507(self, corpus, tmp_path):
        server = MosaicServer(tmp_path / "data", port=0)
        thread, endpoint = _start(server)
        chaos = _JobsDirChaos(server.jobs_dir, enospc_rate=1.0)
        try:
            with scoped_io(chaos):
                job_id = _submit(endpoint, {"store": corpus["store"]})
                job = _wait_terminal(endpoint, job_id)
            assert job["status"] == "storage-failed"
            assert job["error"]
            status, _ = _request(endpoint, "GET", f"/jobs/{job_id}")
            assert status == 507
            status, _ = _request(endpoint, "GET", f"/jobs/{job_id}/results")
            assert status == 507
            assert any(
                fault == errno.ENOSPC for _op, _i, fault in chaos.injected
            )
            # the failure is isolated: the server keeps serving
            status, _ = _request(endpoint, "GET", "/healthz")
            assert status == 200
            job_id = _submit(endpoint, {"store": corpus["store"]})
            assert _wait_terminal(endpoint, job_id)["status"] == "done"
        finally:
            _shutdown(server, thread)


# -- cross-route resume -------------------------------------------------
def _truncate_journal(path, n_outcomes):
    """Keep the header plus the first ``n_outcomes`` settle lines — the
    journal a run killed at that point leaves behind."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "wb") as fh:
        fh.writelines(lines[: 1 + n_outcomes])
    return b"".join(lines[: 1 + n_outcomes])


class TestCrossRouteResume:
    """A journal started by the batch CLI resumes in the server, and a
    server job's journal resumes in the batch CLI, byte-identically."""

    def test_cli_journal_resumes_in_server(self, corpus, tmp_path):
        journal = tmp_path / "cli.jsonl"
        cli_main([
            "categorize", "--store", corpus["store"],
            "--journal", str(journal), "--out", str(tmp_path / "cli.out"),
        ])
        prefix = _truncate_journal(journal, 5)

        # a server that died holding the job: registered, never finished
        data_dir = tmp_path / "data"
        job_dir = data_dir / "jobs" / "job-000001"
        job_dir.mkdir(parents=True)
        (job_dir / "journal.jsonl").write_bytes(prefix)
        (data_dir / "jobs.jsonl").write_text(
            json.dumps(
                {"event": "submitted", "job_id": "job-000001",
                 "kind": "store", "path": corpus["store"], "repair": False}
            ) + "\n"
        )
        server = MosaicServer(data_dir, port=0)
        thread, endpoint = _start(server)
        try:
            job = _wait_terminal(endpoint, "job-000001")
            assert job["status"] == "done", job
            status, data = _request(endpoint, "GET", "/jobs/job-000001/results")
            assert status == 200
            assert data == corpus["batch_bytes"]
        finally:
            _shutdown(server, thread)
        resumed = (job_dir / "journal.jsonl").read_bytes()
        assert resumed.startswith(prefix)  # resumed, not restarted
        assert job["metrics"]["n_resumed"] == 5

    def test_server_journal_resumes_in_cli(self, corpus, tmp_path):
        server = MosaicServer(tmp_path / "data", port=0)
        thread, endpoint = _start(server)
        try:
            job_id = _submit(endpoint, {"store": corpus["store"]})
            assert _wait_terminal(endpoint, job_id)["status"] == "done"
        finally:
            _shutdown(server, thread)
        journal = tmp_path / "data" / "jobs" / job_id / "journal.jsonl"
        _truncate_journal(journal, 5)
        # resumed on the other route: the stream over the trace files
        out = tmp_path / "resumed.jsonl"
        cli_main([
            "categorize", "--traces", corpus["trace_dir"],
            "--resume", str(journal), "--out", str(out),
        ])
        assert out.read_bytes() == corpus["batch_bytes"]


# -- registry replay ---------------------------------------------------
class TestRegistryReplay:
    def test_replay_rebuilds_jobs_and_requeues_unfinished(self, tmp_path):
        registry = [
            {"event": "submitted", "job_id": "job-000001", "kind": "store",
             "path": "/x.mosc", "repair": False},
            {"event": "finished", "job_id": "job-000001", "status": "done",
             "error": "", "n_results": 5, "n_failures": 0},
            {"event": "submitted", "job_id": "job-000002", "kind": "traces",
             "path": "/traces", "repair": True},
        ]
        lines = [json.dumps(e, separators=(",", ":")) for e in registry]
        lines.append('{"event": "submitted", "job_id": "job-0000')  # torn tail
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "jobs.jsonl").write_text("\n".join(lines) + "\n")

        server = MosaicServer(data_dir, port=0)
        assert set(server.jobs) == {"job-000001", "job-000002"}
        assert server.jobs["job-000001"].status == "done"
        assert server.jobs["job-000001"].n_results == 5
        assert server.jobs["job-000002"].status == "queued"
        assert server.jobs["job-000002"].repair is True
        assert [j.job_id for j in server._resumed_at_start] == ["job-000002"]
        # new ids continue after the replayed sequence: no collisions
        assert server._seq == 2
        server._registry.close()

    def test_empty_data_dir_starts_clean(self, tmp_path):
        server = MosaicServer(tmp_path / "data", port=0)
        assert server.jobs == {}
        assert server._resumed_at_start == []
        server._registry.close()


# -- lifecycle ---------------------------------------------------------
class TestEndpointFile:
    def test_clean_stop_removes_server_json(self, tmp_path):
        server = MosaicServer(tmp_path / "data", port=0)
        thread, _endpoint = _start(server)
        _shutdown(server, thread)
        assert not (tmp_path / "data" / "server.json").exists()

    def test_stop_keeps_another_incarnations_server_json(self, tmp_path):
        server = MosaicServer(tmp_path / "data", port=0)
        thread, endpoint = _start(server)
        path = tmp_path / "data" / "server.json"
        other = json.dumps({**endpoint, "port": endpoint["port"] + 1}) + "\n"
        path.write_text(other)
        _shutdown(server, thread)
        assert path.read_text() == other
