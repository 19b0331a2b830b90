"""Content-addressed categorization result cache.

At service scale the same trace arrives more than once: a tracer
front-end re-submits a corpus after a crash, a scheduler re-queries last
week's fleet, two users share a benchmark.  Categorization is
deterministic — same bytes, same config, same result — so identical
traces should be categorized exactly once.

The address is the trace's *content*, not its path: the per-trace CRC
chain the ``.mosc`` v2 store records at compile time
(:func:`repro.columnar.format.trace_crc32` — covering the index row,
record slab, operation slabs, and every referenced heap string) plus
the trace's job id, since a 32-bit CRC alone collides across a fleet,
mixed with a namespace digest of the
:class:`~repro.core.thresholds.MosaicConfig` repr and the repair flag,
since either changes the output.  Entries are
one JSON file per key, fanned out by the key's first byte
(``<root>/<k[:2]>/<k>.json``), written atomically through
:mod:`repro.io` so a crash never publishes a torn entry.

The cache is a performance artifact, like the lint cache: a miss, a
torn entry, or a failed write must never fail the categorization that
consulted it — reads degrade to misses and writes are dropped (counted
in :attr:`ResultCache.put_errors`).  Served payloads are the exact JSON
the pipeline journaled when the trace was first categorized, so a cache
hit is byte-identical to a re-run.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from ..io import StorageError, atomic_write_text

__all__ = ["ResultCache", "config_namespace"]


def config_namespace(config: Any, repair: bool = False) -> str:
    """Digest of everything besides trace content that shapes a result.

    ``config`` is hashed by ``repr`` — :class:`MosaicConfig` is a frozen
    dataclass whose repr enumerates every threshold, so any knob change
    re-namespaces the cache instead of serving results computed under
    different thresholds.
    """
    digest = hashlib.sha256(
        f"{config!r}|repair={bool(repair)}".encode()
    ).hexdigest()
    return digest[:16]


class ResultCache:
    """Directory-backed content-addressed store of result payloads.

    Implements the duck-typed protocol
    :attr:`repro.core.pipeline.PipelineContext.result_cache` consumes:
    :meth:`trace_key`, :meth:`get`, :meth:`put`.  Hit/miss counters feed
    the service's ``/metrics`` endpoint.
    """

    def __init__(self, root: str | os.PathLike[str], *, namespace: str = "") -> None:
        self.root = os.fspath(root)
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self.put_errors = 0

    @classmethod
    def for_config(
        cls,
        root: str | os.PathLike[str],
        config: Any,
        *,
        repair: bool = False,
    ) -> "ResultCache":
        """Cache namespaced to one (config, repair) combination."""
        return cls(root, namespace=config_namespace(config, repair))

    # -- keying --------------------------------------------------------
    def trace_key(self, trace_crc: int, job_id: int) -> str:
        """Cache key of one trace: namespace + content CRC chain + job id.

        A 32-bit CRC alone collides across a large fleet; mixing in the
        job id keeps two distinct traces that share a CRC from being
        served each other's result.
        """
        digest = hashlib.sha256(
            f"{self.namespace}:{trace_crc & 0xFFFFFFFF:08x}:{job_id}".encode()
        ).hexdigest()
        return digest[:40]

    def entry_path(self, key: str) -> str:
        """Where ``key``'s payload lives (two-level fan-out)."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- protocol ------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """Saved payload for ``key``, or ``None`` (counted as a miss).

        Unreadable or torn entries degrade to misses: the pipeline
        recomputes, and the next :meth:`put` heals the entry.
        """
        try:
            with open(self.entry_path(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (atomic, best-effort).

        A cache that cannot be written is a performance loss, not a
        failure: storage errors are counted and swallowed so the
        categorization that produced ``payload`` still succeeds.
        """
        path = self.entry_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write_text(
                path,
                json.dumps(payload, separators=(",", ":"), sort_keys=False)
                + "\n",
            )
        except (StorageError, OSError):
            self.put_errors += 1

    # -- observability -------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        """Counter snapshot for ``/metrics``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "put_errors": self.put_errors,
            "namespace": self.namespace,
        }
