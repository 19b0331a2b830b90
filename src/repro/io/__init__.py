"""Storage durability layer: the one road to disk.

Every durable artifact the system writes — compiled ``.mosc`` stores,
checkpoint journals, quarantine manifests, lint caches and baselines,
CSV/report exports, result files — goes through this package:

* :class:`FaultableIO` — the injectable VFS seam; tests swap in
  :class:`repro.testing.StorageChaos` to script ENOSPC/EIO/EINTR/
  short-write/power-cut faults deterministically;
* :func:`atomic_write` / :func:`atomic_write_bytes` — temp file +
  fsync + rename + parent-dir fsync: crash leaves old or new artifact,
  never a torn hybrid;
* :func:`durable_append` / :class:`DurableAppender` — flush-per-line,
  fsync-per-checkpoint (or per group commit) line appends for the run
  journal and the result cache segments;
* :class:`StorageError` — the typed, operation- and path-carrying
  failure every persistence site raises instead of a raw errno.

Lint rule MOS018 enforces the routing: persistence modules may not call
``open(..., "w")`` or ``os.rename``/``os.replace`` directly.  See
docs/ROBUSTNESS.md ("Storage fault model") for the guarantees per
artifact.
"""

from .backoff import Backoff
from .durable import (
    DurableAppender,
    atomic_write,
    atomic_write_bytes,
    atomic_write_text,
    durable_append,
)
from .vfs import (
    DEFAULT_RETRY,
    TRANSIENT_ERRNOS,
    FaultableIO,
    IORetryPolicy,
    StorageError,
    get_io,
    scoped_io,
    set_io,
)

__all__ = [
    "Backoff",
    "DEFAULT_RETRY",
    "TRANSIENT_ERRNOS",
    "DurableAppender",
    "FaultableIO",
    "IORetryPolicy",
    "StorageError",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "durable_append",
    "get_io",
    "scoped_io",
    "set_io",
]
