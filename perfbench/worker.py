"""One timed benchmark run, in a fresh process.

``run.py`` prepares the inputs and starts this script with a JSON spec;
it writes its raw measurements back as JSON.  Batch workloads run the
pipeline in this process after one untimed warm-up pass; serve-mix
drives ``mosaic serve`` subprocesses over HTTP from two client threads.

With ``trace`` set, the run measures an untraced half and a traced half
(:mod:`tracer` wrappers plus a timing VFS), so the per-layer numbers and
the tracing overhead come from the same process.
"""

from __future__ import annotations

import functools
import gc
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable

import numpy as np

from repro import columnar
from repro.columnar.store import detach_all
from repro.core import run_pipeline_store, run_pipeline_stream
from repro.core.result import save_results_jsonl
from repro.darshan.source import DirectorySource
from repro.io import set_io
from repro.service.client import MosaicClient, MosaicClientError

from tracer import TimingIO, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Serve-mix runs one round per this many seconds of ``--seconds``: the
#: number of rounds is fixed by ``--seconds`` alone, so every run of a
#: seed sends the same jobs.  A round takes about 2 s at the reference
#: speed, plus a server start and a probe.
ROUND_S = 1.3


class SpeedProbe:
    """Samples of the machine's current speed, taken right before the
    first timed pass or round and after each one.

    The benchmark's machine shares its cores and its disk with other
    tenants: the same pass runs 20-60% slower for minutes at a time, and
    an fsync 2-5 times slower.  A CPU sample times a fixed slice of CPU
    work; an fsync sample (serve-mix only) times 20 atomic writes in the
    run's scratch directory.  ``run.unit_speeds`` turns the samples
    around each pass or round into its speed.
    """

    #: CPU and fsync samples per probe; a probe takes about 0.25 s.
    N_CPU = 11
    N_FSYNC = 5

    def __init__(self, fsync_dir: str | None = None) -> None:
        self._values = np.random.default_rng(0).random(200_000)
        self._fsync_dir = fsync_dir
        self.cpu: list[list[float]] = []
        self.fsync: list[list[float]] = []

    def _cpu_once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):  # interpreter dispatch
            acc += i * i
        table = {i: str(i) for i in range(30_000)}  # allocation, hashing
        np.argsort(self._values)  # native code
        del table
        return time.perf_counter() - t0

    def _fsync_once(self, directory: str) -> float:
        """20 writes the way ``repro.io.atomic_write`` makes them durable."""
        t0 = time.perf_counter()
        for i in range(20):
            tmp = os.path.join(directory, f"probe-{i}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, b"x" * 1024)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, os.path.join(directory, f"probe-{i}"))
            dfd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dfd)
            finally:
                os.close(dfd)
        return time.perf_counter() - t0

    def sample(self) -> None:
        self.cpu.append([self._cpu_once() for _ in range(self.N_CPU)])
        if self._fsync_dir is not None:
            # the finished round's writes and deletions are committed now,
            # so neither the probe nor the next round pays for them
            os.sync()
            self.fsync.append(
                [self._fsync_once(self._fsync_dir) for _ in range(self.N_FSYNC)]
            )


def _timed(fn: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def count_mismatches(produced: bytes, expected: bytes) -> int:
    """Result lines that differ from the oracle (missing or extra count)."""
    got = produced.splitlines()
    want = expected.splitlines()
    differ = sum(1 for a, b in zip(got, want) if a != b)
    return differ + abs(len(got) - len(want))


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak RSS (``VmHWM``).  Unlike ``ru_maxrss`` it starts
    afresh at exec, so a large parent at fork time does not leak in."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ----------------------------------------------------------------------
# batch workloads


def _loop(
    seconds: float, one_pass: Callable[[], dict], probe: SpeedProbe
) -> list[dict]:
    """Repeat ``one_pass`` for ``seconds`` (at least three passes), with
    the machine's speed probed after each."""
    passes: list[dict] = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(passes) < 3:
        gc.collect()
        passes.append(one_pass())
        probe.sample()
    return passes


def run_batch(spec: dict[str, Any]) -> dict[str, Any]:
    corpora, work = spec["corpora"], spec["work"]
    oracles = [_read(c["oracle"]) for c in corpora]
    out = os.path.join(work, "results.jsonl")
    stores = [os.path.join(work, f"corpus-{i}.mosc") for i in range(len(corpora))]
    is_store = spec["workload"] == "ckpt-store"

    def compile_all() -> tuple[float, int]:
        t0 = time.perf_counter()
        decoded = 0
        for corpus, store in zip(corpora, stores):
            source = DirectorySource(corpus["traces"])
            # looked up at call time so the traced run sees the span wrapper
            columnar.compile_corpus(source, store)
            decoded += source.bytes_read
        return time.perf_counter() - t0, decoded

    def run_job(i: int) -> dict:
        t0 = time.perf_counter()
        if is_store:
            detach_all()  # each job attaches + verifies, like a CLI run
            result = run_pipeline_store(stores[i])
        else:
            result = run_pipeline_stream(DirectorySource(corpora[i]["traces"]))
        save_results_jsonl(result.results, out)
        wall = time.perf_counter() - t0
        pre = result.preprocess
        return {
            "wall": wall,
            "n_input": pre.n_input,
            "n_selected": pre.n_selected,
            "n_results": len(result.results),
            "n_failures": result.n_failures,
            "mismatched": count_mismatches(_read(out), oracles[i]),
            "decoded": result.metrics.get("scan_bytes_read", 0)
            + result.metrics.get("categorize_bytes_read", 0),
        }

    def one_pass(with_compile: bool = False) -> dict:
        compile_s, decoded = compile_all() if with_compile else (0.0, 0)
        jobs = [run_job(i) for i in range(len(corpora))]
        return {
            "wall": compile_s + sum(j["wall"] for j in jobs),
            "jobs": jobs,
            "decoded": decoded + sum(j["decoded"] for j in jobs),
        }

    if is_store:
        setup: Callable[[], Any] = compile_all
    else:
        # a fresh interpreter until the pipeline entry points are imported;
        # no timeout (run.py's deadline covers a hang): with one, the wait
        # polls in steps of up to 50 ms and the samples snap to them
        setup = functools.partial(
            subprocess.run,
            [sys.executable, "-c", "import repro.core, repro.darshan.source"],
            check=True,
        )
    # compiling the small ckpt-store corpora takes ~0.1 s, so it is
    # sampled often enough for its median to hold still
    samples = 15 if is_store else 5
    probe = SpeedProbe()
    report: dict[str, Any] = {"setup": [_timed(setup) for _ in range(samples)]}
    report["warmup"] = one_pass()
    probe.sample()
    seconds = spec["seconds"]
    if not spec["trace"]:
        report["passes"] = _loop(seconds, one_pass, probe)
    else:
        # ckpt-store's traced pass includes its compile, so the columnar
        # compile and darshan layers show up next to the timed path
        report["untraced"] = _loop(seconds / 2, lambda: one_pass(is_store), probe)
        tracer = Tracer()
        tracer.install()
        set_io(TimingIO(tracer))
        try:
            report["passes"] = _loop(seconds / 2, lambda: one_pass(is_store), probe)
        finally:
            set_io(None)
            tracer.uninstall()
        report["spans"] = tracer.snapshot()
    report["probe_samples"] = probe.cpu
    report["rss_mb"] = peak_rss_mb()
    return report


# ----------------------------------------------------------------------
# serve-mix


def _schedule(
    rng: random.Random, n_stores: int, n_warm: int, n_dedup: int, rnd: int
) -> list[list[tuple[str, int, str]]]:
    """Two clients' job lists for one round.

    Client ``c`` owns every other store.  Per store it sends one *cold*
    job (a store the server has not seen), then a seeded shuffle of
    *warm* jobs (same store, fresh idempotency key: every trace is a
    cache hit) and *dedup* requests (the cold job's key again).
    """
    plans: list[list[tuple[str, int, str]]] = []
    for client in range(2):
        own = [s for s in range(n_stores) if s % 2 == client]
        rng.shuffle(own)
        jobs: list[tuple[str, int, str]] = []
        for s in own:
            cold = f"r{rnd}-s{s}-cold"
            jobs.append(("cold", s, cold))
            rest = [("warm", s, f"r{rnd}-s{s}-warm{i}") for i in range(n_warm)]
            rest += [("dedup", s, cold)] * n_dedup
            rng.shuffle(rest)
            jobs.extend(rest)
        plans.append(jobs)
    return plans


def _http_get(port: int, target: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", target)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _start_server(data_dir: str, spans: str | None, log: Any) -> tuple[Any, int]:
    """Spawn ``mosaic serve`` and wait for ``/readyz``; returns (proc, port)."""
    args = ["serve", "--data-dir", data_dir, "--port", "0"]
    if spans is None:
        cmd = [sys.executable, "-m", "repro.cli", *args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"), spans, *args]
    proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
    endpoint = os.path.join(data_dir, "server.json")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early with {proc.returncode}")
        try:
            with open(endpoint, encoding="utf-8") as fh:
                port = int(json.load(fh)["port"])
            if _http_get(port, "/readyz")[0] == 200:
                return proc, port
        except (OSError, ValueError, KeyError):
            pass
        time.sleep(0.002)
    proc.kill()
    proc.wait()
    raise RuntimeError("server not ready within 60 s")


def _client(
    port: int,
    jobs: list[tuple[str, int, str]],
    corpora: list[dict],
    oracles: list[bytes],
    start: threading.Barrier,
    out: list[dict],
) -> None:
    client = MosaicClient("127.0.0.1", port, timeout_s=60)
    start.wait()
    for kind, s, key in jobs:
        rec: dict[str, Any] = {"kind": kind, "store": s, "requests": 2}
        t0 = time.perf_counter()
        try:
            sub = client.submit(store=corpora[s]["store"], idempotency_key=key)
            rec["accepted"] = time.perf_counter() - t0
            job_id = sub["job_id"]
            status = sub.get("status")
            rec["running"] = rec["finished"] = rec["accepted"]
            if status not in ("done", "failed", "storage-failed"):
                seen: list[float] = []

                def on_event(event: dict) -> None:
                    if not seen and (
                        event.get("event") == "running"
                        or event.get("status") == "running"
                    ):
                        seen.append(time.perf_counter() - t0)

                status = client.watch(job_id, timeout_s=120, on_event=on_event)[
                    "status"
                ]
                rec["finished"] = time.perf_counter() - t0
                rec["running"] = seen[0] if seen else rec["finished"]
                rec["requests"] += 2
            rec["status"] = status
            data = client.results(job_id) if status == "done" else b""
            rec["done"] = time.perf_counter() - t0
            rec["lines"] = data.count(b"\n")
            rec["mismatched"] = count_mismatches(data, oracles[s])
        except (MosaicClientError, OSError, ValueError, KeyError) as exc:
            rec["done"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
        out.append(rec)
    out.append(
        {
            "kind": "client",
            "retries": client.n_retries,
            "shed_responses": client.n_shed_responses,
            "reconnects": client.n_reconnects,
        }
    )


def _serve_round(
    spec: dict[str, Any], plans: list, oracles: list[bytes], name: str, traced: bool
) -> dict[str, Any]:
    data_dir = os.path.join(spec["work"], f"serve-{name}")
    spans = os.path.join(spec["work"], f"spans-{name}.json") if traced else None
    corpora = spec["corpora"]
    with open(os.path.join(spec["work"], f"serve-{name}.log"), "wb") as log:
        t0 = time.perf_counter()
        proc, port = _start_server(data_dir, spans, log)
        setup = time.perf_counter() - t0
        try:
            records: list[list[dict]] = [[], []]
            start = threading.Barrier(3)
            threads = [
                threading.Thread(
                    target=_client,
                    args=(port, plans[c], corpora, oracles, start, records[c]),
                    daemon=True,
                )
                for c in range(2)
            ]
            for t in threads:
                t.start()
            start.wait()
            t_loop = time.perf_counter()
            for t in threads:
                t.join(timeout=170)
            loop_wall = time.perf_counter() - t_loop
            hung = any(t.is_alive() for t in threads)
            status, body = _http_get(port, "/metrics")
            metrics = json.loads(body) if status == 200 else {}
            rss = peak_rss_mb(proc.pid)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                exit_code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                exit_code = proc.wait()
    report: dict[str, Any] = {
        "setup": setup,
        "loop_wall": loop_wall,
        "hung": hung,
        "exit_code": exit_code,
        "jobs": [r for rs in records for r in rs if r["kind"] != "client"],
        "clients": [r for rs in records for r in rs if r["kind"] == "client"],
        "metrics": metrics,
        "rss_mb": rss,
    }
    if spans is not None:
        with open(spans, encoding="utf-8") as fh:
            report["spans"] = json.load(fh)
    shutil.rmtree(data_dir, ignore_errors=True)
    return report


def run_serve(spec: dict[str, Any]) -> dict[str, Any]:
    size = spec["size"]
    oracles = [_read(c["oracle"]) for c in spec["corpora"]]
    rng = random.Random(spec["seed"])
    n_rounds = max(1, round(spec["seconds"] / ROUND_S))
    modes = [False] * n_rounds
    if spec["trace"]:
        half = max(1, round(n_rounds / 2))
        modes = [False] * half + [True] * half
    plans = [
        _schedule(rng, len(spec["corpora"]), size["warm"], size["dedup"], rnd)
        for rnd in range(len(modes))
    ]
    # one untimed round first, on the first round's schedule: it pays the
    # first reads of the stores and the clients' first-call costs
    warmup = _serve_round(spec, plans[0], oracles, "warmup", False)
    probe = SpeedProbe(fsync_dir=spec["work"])
    probe.sample()
    rounds = []
    for rnd, traced in enumerate(modes):
        report = _serve_round(spec, plans[rnd], oracles, str(rnd), traced)
        probe.sample()
        report["traced"] = traced
        rounds.append(report)
    return {
        "warmup": warmup,
        "rounds": rounds,
        "probe_samples": probe.cpu,
        "fsync_samples": probe.fsync,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    run = run_serve if spec["workload"] == "serve-mix" else run_batch
    report = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
