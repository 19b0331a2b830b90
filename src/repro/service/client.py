"""Resilient stdlib client for the categorization service.

The batch CLI talks to local disks; ``mosaic submit``/``mosaic watch``
talk to a server across a network that resets connections, stalls
mid-body, and restarts daemons.  This client makes that path as
deterministic as the batch one:

* **deterministic retries** — :func:`ClientRetryPolicy` is a
  :class:`repro.io.Backoff`, like the storage layer's: exponential
  backoff with no jitter, so a scripted fault sequence replays
  identically in tests.
  ``Retry-After`` hints from a shedding server are honored (the larger
  of hint and backoff wins).
* **circuit breaker** — :class:`CircuitBreaker` stops hammering a dead
  or shedding server: after ``failure_threshold`` consecutive transport
  failures the circuit opens and calls fail fast with
  :class:`CircuitOpenError` until ``reset_timeout_s`` passes; the next
  (half-open) probe closes it on success.
* **idempotent resubmission** — every submission carries an idempotency
  key derived from the ``.mosc`` per-trace CRC chain (plus repair flag
  and budget), so a retry of a ``POST /jobs`` whose response was lost
  dedups server-side instead of double-running the corpus
  (:func:`idempotency_key_for`).
* **SSE resume** — :meth:`MosaicClient.watch` records the ``id:`` of
  every settle event and reconnects with ``Last-Event-ID``, so a
  severed stream resumes from the server's journal without replaying
  (or dropping) settles.  A terminal ``drain`` event is treated as a
  planned disconnect: the client backs off and reconnects to the
  restarted server, which re-queues the job from its durable registry.

Transport is ``http.client`` only — the client must work in the same
no-third-party-deps envelope as the rest of the reproduction.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import time
from typing import Any, Callable, Iterator

from ..io import Backoff

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "ClientRetryPolicy",
    "MosaicClient",
    "MosaicClientError",
    "ServerUnavailable",
    "idempotency_key_for",
]

#: Job states the watch/wait loops stop on (mirrors the server's).
TERMINAL_STATUSES = frozenset({"done", "failed", "storage-failed"})

#: What "the transport failed" means: socket errors, timeouts, and
#: ``http.client`` protocol failures — a truncated chunked body raises
#: ``IncompleteRead`` and a severed status line ``BadStatusLine``, both
#: ``HTTPException`` rather than ``OSError``, and both retryable.
_TRANSPORT_ERRORS = (
    ConnectionError,
    TimeoutError,
    OSError,
    http.client.HTTPException,
)


class MosaicClientError(Exception):
    """Base class for client-side failures."""


class ServerUnavailable(MosaicClientError):
    """Retries exhausted without a usable response."""


class CircuitOpenError(MosaicClientError):
    """The circuit breaker is open; the call was not attempted."""


def ClientRetryPolicy(
    max_attempts: int = 5,
    backoff_base_s: float = 0.05,
    backoff_cap_s: float = 2.0,
) -> Backoff:
    """Deterministic HTTP retry envelope, as a :class:`Backoff`.

    ``backoff_s(attempt)`` for attempt 0, 1, 2... is ``base * 2**attempt``
    capped at ``backoff_cap_s`` — no jitter, so chaos tests replay
    byte-identically.
    """
    return Backoff(
        base_s=backoff_base_s, cap_s=backoff_cap_s, attempts=max_attempts
    )


class CircuitBreaker:
    """Consecutive-failure circuit: closed -> open -> half-open -> closed.

    ``failure_threshold`` consecutive transport failures open the
    circuit; while open, :meth:`allow` is ``False`` until
    ``reset_timeout_s`` passes, after which exactly one half-open probe
    is allowed — success closes the circuit, failure re-opens it.  The
    clock is injectable so tests never sleep.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be > 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        #: Times the circuit tripped open (observability/tests).
        self.n_opens = 0

    def allow(self) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self.opened_at >= self.reset_timeout_s:
                self.state = "half-open"
                return True
            return False
        return True  # half-open: the probe in flight

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.failure_threshold:
            if self.state != "open":
                self.n_opens += 1
            self.state = "open"
            self.opened_at = self._clock()


def idempotency_key_for(
    kind: str,
    path: str | os.PathLike[str],
    *,
    repair: bool = False,
    budget: dict[str, Any] | None = None,
) -> str:
    """Content-derived submission key: same corpus, same key.

    For a ``.mosc`` store the key digests the version-2 per-trace CRC
    chain section (the same chain the server's result cache is
    addressed by), so a re-compile that produces identical bytes keeps
    the key and a changed corpus changes it.  A version-1 store (no
    CRC chain) digests the header's section CRCs instead.  A trace
    directory — no content manifest without reading every file —
    digests the sorted (name, size) listing.

    The repair flag and budget are mixed in: they change the output, so
    they must change the key.
    """
    path = os.fspath(path)
    h = hashlib.sha256()
    h.update(f"kind={kind}|repair={bool(repair)}|".encode())
    h.update(
        json.dumps(budget or {}, sort_keys=True, separators=(",", ":")).encode()
    )
    h.update(b"|")
    if kind == "store":
        from ..columnar.format import HEADER_SIZE, unpack_header

        with open(path, "rb") as fh:
            header = unpack_header(fh.read(HEADER_SIZE))
            crc_section = header["sections"].get("trace_crcs")
            if crc_section is not None and crc_section[1] > 0:
                offset, length, _crc = crc_section
                fh.seek(offset)
                h.update(b"crc-chain:")
                h.update(fh.read(length))
            else:
                h.update(b"section-crcs:")
                for name in sorted(header["sections"]):
                    _off, _len, crc = header["sections"][name]
                    h.update(f"{name}={crc:08x};".encode())
    else:
        h.update(b"listing:")
        try:
            names = sorted(os.listdir(path))
        except OSError:
            names = []
        for name in names:
            try:
                size = os.path.getsize(os.path.join(path, name))
            except OSError:
                size = -1
            h.update(f"{name}={size};".encode())
    return h.hexdigest()[:40]


def _parse_sse(lines: Iterator[bytes]) -> Iterator[tuple[str | None, dict]]:
    """Yield ``(event_id, event_dict)`` from an SSE byte-line stream.

    Comment lines (keepalive heartbeats) are skipped; an ``id:`` field
    applies to the event whose ``data:`` line follows it, matching the
    server's framing.
    """
    event_id: str | None = None
    for raw in lines:
        line = raw.rstrip(b"\r\n")
        if not line:
            continue
        if line.startswith(b":"):
            continue  # keepalive comment
        if line.startswith(b"id:"):
            event_id = line[3:].strip().decode("ascii", "replace")
            continue
        if line.startswith(b"data:"):
            try:
                payload = json.loads(line[5:].strip().decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            yield event_id, payload
            event_id = None


class MosaicClient:
    """Retrying, breaker-guarded, resume-capable service client."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: Backoff | None = None,
        breaker: CircuitBreaker | None = None,
        timeout_s: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.retry = retry or ClientRetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.timeout_s = timeout_s
        self._sleep = sleep
        # -- observability ---------------------------------------------
        self.n_retries = 0
        self.n_reconnects = 0
        self.n_resumed_events = 0
        self.n_shed_responses = 0

    # -- transport -----------------------------------------------------
    def _one_request(
        self,
        method: str,
        target: str,
        body: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            conn.request(method, target, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, {k.lower(): v for k, v in resp.getheaders()}, data
        finally:
            conn.close()

    def request(
        self,
        method: str,
        target: str,
        *,
        payload: dict[str, Any] | None = None,
        idempotent: bool = True,
    ) -> tuple[int, bytes]:
        """One logical request under retry + breaker.

        Transport failures and shed responses (429/503 with
        ``Retry-After``) are retried up to the policy; anything else is
        returned to the caller as-is.  ``idempotent=False`` disables
        retry after a transport failure *past the request send* cannot
        be ruled out — submissions always carry an idempotency key, so
        the CLI never needs it.
        """
        body = None
        headers: dict[str, str] = {}
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode()
            headers["Content-Type"] = "application/json"
        last_error = "no attempt made"
        for attempt in range(self.retry.attempts):
            if attempt:
                self.n_retries += 1
            if not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open after {self.breaker.failures} consecutive "
                    f"failures; retry after {self.breaker.reset_timeout_s}s"
                )
            try:
                status, resp_headers, data = self._one_request(
                    method, target, body, headers
                )
            except _TRANSPORT_ERRORS as exc:
                self.breaker.record_failure()
                last_error = f"{type(exc).__name__}: {exc}"
                if not idempotent:
                    raise ServerUnavailable(
                        f"{method} {target} failed mid-flight and is not "
                        f"idempotent: {last_error}"
                    ) from exc
                self._sleep(self.retry.backoff_s(attempt))
                continue
            if status < 400 and not (
                "content-length" in resp_headers
                or "transfer-encoding" in resp_headers
            ):
                # a response severed inside its header section parses
                # as a framing-less success with a read-to-EOF body —
                # indistinguishable from truncation, so retry it; the
                # real server always frames its responses
                self.breaker.record_failure()
                last_error = f"HTTP {status} without framing headers"
                self._sleep(self.retry.backoff_s(attempt))
                continue
            if status in (429, 503):
                # shed, not broken: honor Retry-After but keep the
                # breaker informed — a shedding server is still a
                # server we should stop hammering
                self.n_shed_responses += 1
                self.breaker.record_failure()
                last_error = f"HTTP {status}: {data[:200]!r}"
                try:
                    hint = float(resp_headers.get("retry-after", "0"))
                except ValueError:
                    hint = 0.0
                self._sleep(max(hint, self.retry.backoff_s(attempt)))
                continue
            self.breaker.record_success()
            return status, data
        raise ServerUnavailable(
            f"{method} {target} failed after "
            f"{self.retry.attempts} attempts: {last_error}"
        )

    # -- API -----------------------------------------------------------
    def submit(
        self,
        *,
        store: str | None = None,
        traces: str | None = None,
        repair: bool = False,
        budget: dict[str, Any] | None = None,
        idempotency_key: str | None = None,
    ) -> dict[str, Any]:
        """Submit one job; returns ``{"job_id", "status"[, "deduplicated"]}``.

        The idempotency key is derived from content when not given, so
        retried/resubmitted identical work dedups server-side.
        """
        if bool(store) == bool(traces):
            raise ValueError("exactly one of store/traces is required")
        kind = "store" if store else "traces"
        path = str(store or traces)
        if idempotency_key is None:
            idempotency_key = idempotency_key_for(
                kind, path, repair=repair, budget=budget
            )
        payload: dict[str, Any] = {
            kind: path,
            "repair": repair,
            "idempotency_key": idempotency_key,
        }
        if budget:
            payload["budget"] = budget
        status, data = self.request("POST", "/jobs", payload=payload)
        if status not in (200, 202):
            raise MosaicClientError(
                f"submission rejected: HTTP {status}: {data.decode(errors='replace')}"
            )
        return json.loads(data)

    def job(self, job_id: str) -> dict[str, Any]:
        status, data = self.request("GET", f"/jobs/{job_id}")
        if status == 404:
            raise MosaicClientError(f"no job {job_id!r} on the server")
        return json.loads(data)

    def results(self, job_id: str) -> bytes:
        """The job's results JSONL, byte-identical to the batch CLI's.

        The results file is immutable once the job is done, so a
        truncated read simply retries the whole GET.
        """
        status, data = self.request("GET", f"/jobs/{job_id}/results")
        if status != 200:
            raise MosaicClientError(
                f"results for {job_id!r} not servable: HTTP {status}: "
                f"{data.decode(errors='replace')}"
            )
        return data

    def wait(
        self, job_id: str, *, poll_s: float = 0.2, timeout_s: float = 600.0
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns the final record."""
        deadline = time.monotonic() + timeout_s
        while True:
            job = self.job(job_id)
            if job.get("status") in TERMINAL_STATUSES:
                return job
            if time.monotonic() >= deadline:
                raise ServerUnavailable(
                    f"{job_id} still {job.get('status')!r} after {timeout_s}s"
                )
            self._sleep(poll_s)

    # -- SSE watch -----------------------------------------------------
    def _open_event_stream(
        self, job_id: str, last_event_id: int
    ) -> tuple[Any, Any]:
        """One SSE connection (returns (conn, response)); caller closes."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        headers = {"Accept": "text/event-stream"}
        if last_event_id > 0:
            headers["Last-Event-ID"] = str(last_event_id)
        conn.request("GET", f"/jobs/{job_id}/events", headers=headers)
        resp = conn.getresponse()
        if resp.status != 200:
            data = resp.read()
            conn.close()
            raise MosaicClientError(
                f"event stream for {job_id!r} refused: HTTP {resp.status}: "
                f"{data.decode(errors='replace')}"
            )
        return conn, resp

    def watch(
        self,
        job_id: str,
        *,
        timeout_s: float = 600.0,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        """Follow the job's settle stream to a terminal state.

        Severed streams (reset, stall, truncation) reconnect with
        ``Last-Event-ID`` so settles are neither dropped nor duplicated;
        a ``drain`` event means the server is restarting — the client
        keeps reconnecting (the job survives in the durable registry)
        until the job is terminal or ``timeout_s`` passes.  Returns the
        final job record.
        """
        deadline = time.monotonic() + timeout_s
        last_seq = 0
        attempt = 0
        while time.monotonic() < deadline:
            if not self.breaker.allow():
                self._sleep(self.breaker.reset_timeout_s / 2)
                continue
            try:
                conn, resp = self._open_event_stream(job_id, last_seq)
            except MosaicClientError:
                raise
            except _TRANSPORT_ERRORS:
                self.breaker.record_failure()
                self.n_reconnects += 1
                self._sleep(self.retry.backoff_s(attempt))
                attempt = min(attempt + 1, 16)
                continue
            self.breaker.record_success()
            made_progress = False
            try:
                for event_id, event in _parse_sse(iter(resp.readline, b"")):
                    made_progress = True
                    if event_id is not None:
                        try:
                            seq = int(event_id)
                        except ValueError:
                            seq = 0
                        if seq and seq <= last_seq:
                            continue  # replayed overlap after resume
                        if seq:
                            if last_seq:
                                self.n_resumed_events += 1
                            last_seq = seq
                    if on_event is not None:
                        on_event(event)
                    name = event.get("event")
                    if name == "finished":
                        return self.job(job_id)
                    if name == "drain":
                        break  # planned server restart: reconnect
            except _TRANSPORT_ERRORS:
                pass  # severed mid-stream: reconnect below
            finally:
                conn.close()
            self.n_reconnects += 1
            # a stream that delivered events resets the backoff ladder;
            # one that died instantly climbs it
            attempt = 0 if made_progress else min(attempt + 1, 16)
            self._sleep(self.retry.backoff_s(attempt))
        raise ServerUnavailable(f"{job_id} not terminal after {timeout_s}s")
