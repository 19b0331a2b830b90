"""Mosaic-as-a-service: async categorization server plus its storage.

The service layer packages the batch pipeline for long-lived operation
(``mosaic serve``): an asyncio HTTP front end (:mod:`.server`) over the
shared journal-backed :class:`~repro.parallel.jobstore.JobStore`, a
content-addressed result cache (:mod:`.cache`) keyed on ``.mosc`` v2
per-trace CRC chains, and one application catalog
(:class:`~repro.core.stream.ApplicationCatalog`) folded on the job
thread and read by scheduler queries.

Coroutines in this package must never block the event loop — every
filesystem or pipeline call goes through ``run_in_executor``.  The
contract is enforced statically by lint rule MOS019.
"""

from .admission import AdmissionControl, AdmissionLimits
from .cache import ResultCache, config_namespace
from .client import (
    CircuitBreaker,
    ClientRetryPolicy,
    MosaicClient,
    MosaicClientError,
    idempotency_key_for,
)
from ..core.stream import result_weight
from .server import JobRecord, MosaicServer

__all__ = [
    "AdmissionControl",
    "AdmissionLimits",
    "CircuitBreaker",
    "ClientRetryPolicy",
    "JobRecord",
    "MosaicClient",
    "MosaicClientError",
    "MosaicServer",
    "ResultCache",
    "config_namespace",
    "idempotency_key_for",
    "result_weight",
]
