"""Truncation-under-mmap: every accessor fails typed, never SIGBUS.

A ``.mosc`` store is read through one long-lived mmap; if another
process truncates (or replaces) the file, touching pages past the new
EOF delivers SIGBUS and kills the worker with no Python frame to blame.
The store therefore re-validates the file's size (via a dup'd fd)
before every section access and on every :func:`attach` cache hit, and
converts the hazard into :class:`TraceFormatError` — a quarantinable
per-trace failure, not a dead process.
"""

import os

import pytest

from repro.columnar import CorpusStore, attach, compile_corpus, detach_all
from repro.darshan.errors import TraceFormatError
from repro.darshan.source import InMemorySource
from repro.synth import FleetConfig, generate_fleet


@pytest.fixture()
def store_path(tmp_path):
    fleet = generate_fleet(FleetConfig(n_apps=24, mean_runs=1.5, seed=3))
    path = str(tmp_path / "corpus.mosc")
    compile_corpus(InMemorySource(fleet.traces), path)
    return path


def _truncate(path, keep=256):
    os.truncate(path, keep)


class TestGuardedAccessors:
    def test_accessors_raise_typed_after_truncation(self, store_path):
        store = CorpusStore(store_path)
        try:
            store.decode_trace(0)  # healthy first
            _truncate(store_path)
            for access in (
                lambda: store.decode_trace(0),
                lambda: store.operations(0, "read"),
                lambda: store.violations(0),
                lambda: store.app_key(0),
                lambda: store.job_meta(0),
                lambda: store.metadata_events_batch([0]),
            ):
                with pytest.raises(TraceFormatError, match="truncated"):
                    access()
        finally:
            store.close()

    def test_unlinked_inode_stays_readable(self, store_path):
        store = CorpusStore(store_path)
        try:
            os.unlink(store_path)
            # fstat of the dup'd fd still answers (the inode lives while
            # mapped); a subsequent truncate through a new handle is the
            # dangerous case and cannot happen to an unlinked inode —
            # reads remain safe and must keep working.
            store.decode_trace(0)
        finally:
            store.close()

    def test_closed_store_raises_typed(self, store_path):
        store = CorpusStore(store_path)
        store.close()
        with pytest.raises(TraceFormatError, match="closed"):
            store.decode_trace(0)


class TestAttachRevalidation:
    def test_cache_hit_revalidates_size(self, store_path):
        first = attach(store_path)
        assert attach(store_path) is first  # warm hit, still healthy
        _truncate(store_path)
        with pytest.raises(TraceFormatError):
            attach(store_path)
        detach_all()

    def test_cache_hit_detects_vanished_file(self, store_path):
        attach(store_path)
        os.unlink(store_path)
        with pytest.raises(TraceFormatError):
            attach(store_path)
        detach_all()

    def test_reattach_after_repair_recovers(self, store_path, tmp_path):
        # stat-identity invalidation: a truncated store replaced by a
        # healthy artifact must attach cleanly on the next call
        healthy = open(store_path, "rb").read()
        attach(store_path)
        _truncate(store_path)
        with pytest.raises(TraceFormatError):
            attach(store_path)
        with open(store_path, "wb") as fh:
            fh.write(healthy)
        store = attach(store_path)
        store.decode_trace(0)
        detach_all()
