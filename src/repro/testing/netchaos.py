"""Deterministic network chaos: a scripted TCP fault proxy.

The resilient service client (:mod:`repro.service.client`) claims to
survive connection resets, mid-body stalls, truncated responses, and
slow-trickle servers.  Like the process-chaos harness
(:mod:`.faults`) and the storage-fault VFS (:mod:`.storage`), this
module makes those failures *injectable on a seeded schedule* so the
claim is testable, replayable, and CI-sized.

:class:`NetChaosProxy` is a threaded TCP proxy in front of a real
``mosaic serve`` instance.  Every accepted connection is numbered, and
its fate comes from a :class:`NetChaosSchedule` — either derived from a
seed (same seed, same per-connection fault sequence) or replayed from
an explicit script list (the failure artifact CI saves).  Faults:

``reset``
    Forward ``after_bytes`` of the scripted direction, then hard-close
    with ``SO_LINGER(1, 0)`` so the peer sees ``ECONNRESET`` — the
    mid-flight daemon crash.
``stall``
    Forward ``after_bytes``, hold the connection silent for
    ``stall_s``, then resume — the overloaded or GC-pausing server.
    Clients with a read timeout shorter than the stall abandon the
    connection; patient ones succeed slowly.
``truncate``
    Forward ``after_bytes`` of the response, then FIN cleanly — the
    short body a dying proxy delivers.
``trickle``
    Forward the response ``chunk_size`` bytes at a time with
    ``delay_s`` pauses — the congested path that tests patience
    without severing anything.
``refuse``
    Reset the client immediately on accept — the listener that died.
``none``
    Pass through untouched.

Progress guarantee: a seeded schedule forces every
``clean_every``-th connection fault-free, so a retrying client always
converges no matter the seed — chaos changes *how long* convergence
takes, never *whether*.  The proxy records every decision in
:attr:`NetChaosProxy.applied`; :meth:`NetChaosProxy.dump_script` emits
it as JSON, which is the artifact CI attaches to a failing run and the
input that replays it exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import struct
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any

__all__ = [
    "FAULT_KINDS",
    "ConnectionScript",
    "NetChaosProxy",
    "NetChaosSchedule",
]

FAULT_NONE = "none"
FAULT_RESET = "reset"
FAULT_STALL = "stall"
FAULT_TRUNCATE = "truncate"
FAULT_TRICKLE = "trickle"
FAULT_REFUSE = "refuse"

FAULT_KINDS = (
    FAULT_NONE,
    FAULT_RESET,
    FAULT_STALL,
    FAULT_TRUNCATE,
    FAULT_TRICKLE,
    FAULT_REFUSE,
)

#: Pump read size; also the granularity at which fault offsets land.
_RECV_BYTES = 65536

#: Safety net so a scripted stall can never wedge a test run.
_SOCKET_TIMEOUT_S = 60.0


@dataclass(frozen=True, slots=True)
class ConnectionScript:
    """One connection's scripted fate.

    ``direction`` selects which pump the fault applies to:
    ``"response"`` (server -> client, the common case) or
    ``"request"`` (client -> server, e.g. resetting a submission
    mid-body).
    """

    kind: str = FAULT_NONE
    direction: str = "response"
    after_bytes: int = 0
    stall_s: float = 0.0
    chunk_size: int = 256
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})"
            )
        if self.direction not in ("request", "response"):
            raise ValueError("direction must be 'request' or 'response'")
        if self.after_bytes < 0 or self.chunk_size < 1:
            raise ValueError("after_bytes must be >= 0, chunk_size >= 1")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _draw(seed: int, index: int, salt: str) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, connection)."""
    digest = hashlib.sha256(f"netchaos:{seed}:{index}:{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class NetChaosSchedule:
    """Per-connection fault decisions: seeded, or replayed from a script.

    Seeded mode draws a fault kind and its parameters from
    ``sha256(seed, connection_index)`` — no RNG state, so concurrent
    connections cannot perturb each other's fates.  ``scripts`` mode
    replays an explicit list (connections beyond its end are clean),
    which is how a CI failure artifact reproduces byte-for-byte.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        fault_rate: float = 0.6,
        clean_every: int = 3,
        stall_s: float = 0.4,
        scripts: list[ConnectionScript] | None = None,
    ) -> None:
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be within [0, 1]")
        if clean_every < 2:
            raise ValueError("clean_every must be >= 2 (progress guarantee)")
        self.seed = seed
        self.fault_rate = fault_rate
        self.clean_every = clean_every
        self.stall_s = stall_s
        self.scripts = scripts

    def script_for(self, index: int) -> ConnectionScript:
        if self.scripts is not None:
            if index < len(self.scripts):
                return self.scripts[index]
            return ConnectionScript()
        if index % self.clean_every == self.clean_every - 1:
            return ConnectionScript()  # the guaranteed-clean slot
        if _draw(self.seed, index, "gate") >= self.fault_rate:
            return ConnectionScript()
        kinds = (FAULT_RESET, FAULT_STALL, FAULT_TRUNCATE, FAULT_TRICKLE,
                 FAULT_REFUSE)
        kind = kinds[int(_draw(self.seed, index, "kind") * len(kinds))]
        after = int(_draw(self.seed, index, "after") * 600)
        direction = (
            "request"
            if kind == FAULT_RESET and _draw(self.seed, index, "dir") < 0.25
            else "response"
        )
        return ConnectionScript(
            kind=kind,
            direction=direction,
            after_bytes=after,
            stall_s=self.stall_s,
            chunk_size=64 + int(_draw(self.seed, index, "chunk") * 192),
            delay_s=0.002,
        )


def _hard_close(sock: socket.socket) -> None:
    """Close with SO_LINGER(1, 0): the peer sees RST, not FIN.

    The fd is closed via ``detach`` + ``os.close`` because a plain
    ``socket.close()`` is *deferred* by CPython while another thread
    (the opposite pump) is blocked in ``recv`` on the same object —
    the RST would never reach the wire until that recv timed out.
    The ``SHUT_RD`` first wakes exactly such a reader *without* putting
    a FIN on the wire: a recv syscall in flight holds the kernel file
    reference, so even ``os.close`` cannot emit the RST until the
    reader returns.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        os.close(sock.detach())
    except OSError:
        pass


def _soft_close(sock: socket.socket) -> None:
    """FIN both directions, then close.

    ``shutdown`` acts on the live fd immediately even when the opposite
    pump thread is blocked in ``recv`` on this socket (and unblocks it);
    relying on ``close`` alone would defer the FIN — see `_hard_close`.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class NetChaosProxy:
    """Scripted-fault TCP proxy in front of one upstream endpoint.

    Use as a context manager::

        with NetChaosProxy(host, port, schedule=NetChaosSchedule(7)) as p:
            client = MosaicClient(*p.endpoint)
            ...

    Threaded, stdlib-only, and bounded: every proxied socket carries a
    hard timeout so no scripted fault can outlive the test that
    injected it.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        schedule: NetChaosSchedule | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.schedule = schedule or NetChaosSchedule()
        self.host = host
        self.port = 0
        #: Decision log: one entry per accepted connection, in order.
        self.applied: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._n_connections = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._open_sockets: set[socket.socket] = set()
        self._stopping = False

    # -- lifecycle -----------------------------------------------------
    @property
    def endpoint(self) -> tuple[str, int]:
        return self.host, self.port

    def start(self) -> "NetChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="netchaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            _soft_close(self._listener)
        with self._lock:
            pending = list(self._open_sockets)
        for sock in pending:
            _hard_close(sock)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "NetChaosProxy":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def dump_script(self) -> str:
        """The applied decisions as JSON — CI's failure artifact, and
        valid ``scripts`` input for an exact replay."""
        with self._lock:
            return json.dumps(
                {"seed": self.schedule.seed, "connections": self.applied},
                indent=2,
            )

    # -- proxying ------------------------------------------------------
    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._open_sockets.add(sock)

    def _untrack(self, sock: socket.socket) -> None:
        with self._lock:
            self._open_sockets.discard(sock)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._lock:
                index = self._n_connections
                self._n_connections += 1
            threading.Thread(
                target=self._handle,
                args=(client, index),
                name=f"netchaos-conn-{index}",
                daemon=True,
            ).start()

    def _handle(self, client: socket.socket, index: int) -> None:
        script = self.schedule.script_for(index)
        with self._lock:
            self.applied.append({"connection": index, **script.to_dict()})
        client.settimeout(_SOCKET_TIMEOUT_S)
        self._track(client)
        if script.kind == FAULT_REFUSE:
            self._untrack(client)
            _hard_close(client)
            return
        try:
            upstream = socket.create_connection(
                self.upstream, timeout=_SOCKET_TIMEOUT_S
            )
        except OSError:
            self._untrack(client)
            _hard_close(client)
            return
        self._track(upstream)
        request_fault = script if script.direction == "request" else None
        response_fault = script if script.direction == "response" else None
        request_pump = threading.Thread(
            target=self._pump,
            args=(client, upstream, request_fault, upstream),
            name=f"netchaos-req-{index}",
            daemon=True,
        )
        request_pump.start()
        self._pump(upstream, client, response_fault, client)
        request_pump.join(timeout=_SOCKET_TIMEOUT_S)
        for sock in (client, upstream):
            self._untrack(sock)
            _soft_close(sock)

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        fault: ConnectionScript | None,
        victim: socket.socket,
    ) -> None:
        """Forward src -> dst, applying ``fault`` at its byte offset.

        ``victim`` is the socket the fault lands on (the client for
        response faults, the upstream for request faults) — resets are
        delivered there so the *peer under test* observes them.
        """
        forwarded = 0
        fault_pending = fault is not None and fault.kind != FAULT_NONE
        trickling = False
        try:
            while True:
                try:
                    data = src.recv(_RECV_BYTES)
                except OSError:
                    return
                if not data:
                    try:
                        dst.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    return
                if fault_pending and forwarded + len(data) > fault.after_bytes:
                    split = max(0, fault.after_bytes - forwarded)
                    head, tail = data[:split], data[split:]
                    if head:
                        dst.sendall(head)
                        forwarded += len(head)
                    fault_pending = False
                    if fault.kind == FAULT_RESET:
                        _hard_close(victim)
                        _soft_close(dst if dst is not victim else src)
                        return
                    if fault.kind == FAULT_TRUNCATE:
                        _soft_close(victim)
                        return
                    if fault.kind == FAULT_STALL:
                        time.sleep(fault.stall_s)
                        dst.sendall(tail)
                        forwarded += len(tail)
                        continue
                    if fault.kind == FAULT_TRICKLE:
                        trickling = True
                        self._trickle(dst, tail, fault)
                        forwarded += len(tail)
                        continue
                if trickling:
                    self._trickle(dst, data, fault)
                else:
                    dst.sendall(data)
                forwarded += len(data)
        except OSError:
            return

    @staticmethod
    def _trickle(
        dst: socket.socket, data: bytes, fault: ConnectionScript
    ) -> None:
        for start in range(0, len(data), fault.chunk_size):
            dst.sendall(data[start : start + fault.chunk_size])
            time.sleep(fault.delay_s)
