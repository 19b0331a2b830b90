"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it wraps the public functions each
layer exposes, at the module attribute its caller looks up (modules bind
names at import, so ``repro.core.categorizer.classify_metadata`` is the
name ``categorize_trace`` actually calls).  Every wrapped call is a span.
A span's *self* time is its duration minus the time covered by the spans
it encloses, so the self times of all spans in one thread never exceed
that thread's wall clock, and ``wall - sum(self)`` is the unattributed
remainder.

Spans are aggregated in memory per name (self seconds and call count)
and handed out with :meth:`Tracer.snapshot`; nothing is written until
the benchmark asks.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

from repro.io import FaultableIO

#: (module path, attribute, span name): plain functions wrapped where
#: their caller looks them up.
FUNCTION_SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.darshan.source", "load_binary", "darshan.decode"),
    ("repro.core.preprocess", "validate_trace", "darshan.validate"),
    ("repro.columnar.compile", "validate_trace", "darshan.validate"),
    ("repro.core.pipeline", "scan_corpus", "core.scan"),
    ("repro.core.pipeline", "categorize_trace", "core.categorize"),
    ("repro.core.categorizer", "preprocess_operations", "core.merge"),
    ("repro.core.categorizer", "classify_temporality", "core.temporality"),
    ("repro.core.categorizer", "detect_periodicity", "core.periodicity"),
    ("repro.core.categorizer", "classify_metadata", "core.metadata"),
    ("repro.columnar", "compile_corpus", "columnar.compile"),
    ("repro.columnar.store", "attach", "columnar.attach"),
    ("repro.columnar.scan", "scan_store", "columnar.scan"),
    ("repro.columnar.batch", "categorize_slice", "columnar.slice"),
    ("repro.columnar.batch", "detect_from_rate", "columnar.metadata"),
    ("repro.columnar.batch", "classify_temporality", "core.temporality"),
    ("repro.columnar.batch", "detect_periodicity", "core.periodicity"),
    ("repro.kernels.batched", "bin_events_segmented", "kernels.bin_events"),
    ("repro.kernels.batched", "neighbor_pass_segmented", "kernels.merge"),
    ("repro.kernels.batched", "overlap_groups_segmented", "kernels.merge"),
    ("repro.kernels.batched", "segment_segmented", "kernels.segment"),
)

#: (module path, class, method, span name): methods wrapped on the class.
METHOD_SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.columnar.store", "CorpusStore", "metadata_events_batch", "columnar.metadata"),
    ("repro.parallel.jobstore", "JobStore", "settle_result", "parallel.jobstore.settle"),
    ("repro.parallel.jobstore", "JobStore", "settle_failure", "parallel.jobstore.settle"),
    ("repro.service.cache", "ResultCache", "get", "service.cache.get"),
    ("repro.service.cache", "ResultCache", "put", "service.cache.put"),
)

#: Generator functions whose every ``next()`` is a span.
ITERATOR_SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.pipeline", "resilient_imap", "parallel.map"),
)

#: Modules that resolve per-trace kernels through ``get_backend``; the
#: backend they receive gets its kernel fields wrapped.
BACKEND_CALLERS: tuple[str, ...] = (
    "repro.merge.concurrent",
    "repro.merge.neighbor",
    "repro.segment.op_segments",
)
BACKEND_SPANS: dict[str, str] = {
    "neighbor_pass": "kernels.merge",
    "overlap_groups": "kernels.merge",
    "coalesce_groups": "kernels.merge",
    "segment": "kernels.segment",
}


class Tracer:
    """Thread-aware span recorder aggregating self time per span name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    self.self_s[name] += dt - frame[0]
                    self.calls[name] += 1

        return traced

    def wrap_iterator(
        self, name: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """``fn`` returning an iterator whose every ``next()`` is a span."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            step = self.wrap(name, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    # -- installation --------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary listed above (idempotent per tracer)."""
        import importlib

        if self._restore:
            return
        for module, attr, name in FUNCTION_SPANS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr)))
        for module, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))
        for module, attr, name in ITERATOR_SPANS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap_iterator(name, getattr(mod, attr)))
        wrapped: dict[str, Any] = {}

        def traced_backend(original: Callable[..., Any]) -> Callable[..., Any]:
            def get_backend(name: str | None = None) -> Any:
                backend = original(name)
                if backend.name not in wrapped:
                    wrapped[backend.name] = dataclasses.replace(
                        backend,
                        **{
                            field: self.wrap(span, getattr(backend, field))
                            for field, span in BACKEND_SPANS.items()
                        },
                    )
                return wrapped[backend.name]

            return get_backend

        for module in BACKEND_CALLERS:
            mod = importlib.import_module(module)
            self._patch(mod, "get_backend", traced_backend(mod.get_backend))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class TimingIO(FaultableIO):
    """The default VFS with fsyncs timed as ``io.fsync`` spans and
    writes counted, installed through ``repro.io.set_io``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._fsync = tracer.wrap("io.fsync", super().fsync)
        self._fsync_dir = tracer.wrap("io.fsync", super().fsync_dir)

    def fsync(self, fh: Any) -> None:
        self._tracer.count("io.fsync_calls")
        self._fsync(fh)

    def fsync_dir(self, path: str) -> None:
        self._tracer.count("io.fsync_dir_calls")
        self._fsync_dir(path)

    def write(self, fh: Any, data: Any) -> int:
        n = super().write(fh, data)
        self._tracer.count("io.write_bytes", n)
        return n
