"""MOS014–MOS017 end to end: seeded reproductions of the real bug
classes, with full source→sink path assertions."""

from __future__ import annotations

import textwrap

from repro.lint import lint_paths
from repro.lint.engine import LintConfig


def _lint(tmp_path, rule_id: str, **modules: str):
    paths = []
    for name, src in modules.items():
        path = tmp_path / f"{name}.py"
        path.write_text(textwrap.dedent(src))
        paths.append(str(path))
    config = LintConfig(select=frozenset({rule_id}))
    return lint_paths(paths, config).findings


def test_mos014_allocation_bomb_reproduction(tmp_path):
    """The MOSD bomb: a 40-byte payload declaring 4G records, with the
    decode and the allocation in different modules."""
    findings = _lint(
        tmp_path,
        "MOS014",
        header="""
        import struct

        def declared_records(blob: bytes) -> int:
            (n_records,) = struct.unpack("<Q", blob[32:40])
            return n_records
        """,
        loader="""
        import numpy as np

        from header import declared_records

        def load(blob: bytes):
            n = declared_records(blob)
            return np.empty(n, dtype=np.float64)
        """,
    )
    assert [f.rule_id for f in findings] == ["MOS014"]
    finding = findings[0]
    assert "np.empty()" in finding.message
    assert "unvalidated" in finding.message
    notes = [s.note for s in finding.trace]
    assert "struct.unpack" in notes[0]
    assert any("declared_records" in n for n in notes)
    assert "allocation sink" in notes[-1]
    # The trace crosses files: source in header.py, sink in loader.py.
    assert {s.path.rsplit("/", 1)[-1] for s in finding.trace} == {
        "header.py",
        "loader.py",
    }


def test_mos014_validated_flow_is_clean(tmp_path):
    findings = _lint(
        tmp_path,
        "MOS014",
        loader="""
        import struct

        import numpy as np

        _CAP = 1 << 20

        def load(blob: bytes):
            (n,) = struct.unpack("<Q", blob[:8])
            if n > _CAP:
                raise ValueError("implausible count")
            return np.empty(n, dtype=np.float64)
        """,
    )
    assert findings == []


def test_mos015_fork_mmap_reproduction(tmp_path):
    """The pre-worktree-isolation pattern: parent maps the store, the
    worker partial captures the map across the fork."""
    findings = _lint(
        tmp_path,
        "MOS015",
        runner="""
        import functools
        import mmap

        from repro.parallel.resilient import resilient_imap

        def _score(handle: mmap.mmap, row: int) -> int:
            return handle[row]

        def run(path: str, rows: list[int]) -> list[int]:
            fh = open(path, "rb")
            handle = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            worker = functools.partial(_score, handle)
            return list(resilient_imap(worker, rows))
        """,
    )
    assert [f.rule_id for f in findings] == ["MOS015"]
    finding = findings[0]
    assert "'handle'" in finding.message
    notes = [s.note for s in finding.trace]
    assert any("created here" in n or "mmap" in n for n in notes[:1])
    assert "captured by the worker callable" in notes[-1]


def test_mos015_descriptor_shipping_is_clean(tmp_path):
    findings = _lint(
        tmp_path,
        "MOS015",
        runner="""
        import functools

        from repro.parallel.resilient import resilient_imap

        def _score(path: str, row: int) -> int:
            with open(path, "rb") as fh:
                return fh.read(row)[-1]

        def run(path: str, rows: list[int]) -> list[int]:
            worker = functools.partial(_score, path)
            return list(resilient_imap(worker, rows))
        """,
    )
    assert findings == []


def test_mos016_ungoverned_stage_reproduction(tmp_path):
    findings = _lint(
        tmp_path,
        "MOS016",
        pipe="""
        import contextlib
        from typing import Iterator

        @contextlib.contextmanager
        def _stage(name: str) -> Iterator[None]:
            yield

        def _categorize(items: list[bytes]) -> list[int]:
            return [len(i) for i in items]

        def run_pipeline(items: list[bytes]) -> list[int]:
            with _stage("categorize"):
                return _categorize(items)
        """,
    )
    assert [f.rule_id for f in findings] == ["MOS016"]
    finding = findings[0]
    assert "_categorize" in finding.message
    assert "never consults" in finding.message
    assert len(finding.trace) == 2


def test_mos016_transitive_budget_consult_is_clean(tmp_path):
    """The budget check may live one call deeper than the stage call."""
    findings = _lint(
        tmp_path,
        "MOS016",
        pipe="""
        import contextlib
        from typing import Iterator

        @contextlib.contextmanager
        def _stage(name: str) -> Iterator[None]:
            yield

        def _tick(budget) -> None:
            budget.check_deadline()

        def _categorize(items: list[bytes], budget) -> list[int]:
            _tick(budget)
            return [len(i) for i in items]

        def run_pipeline(items: list[bytes], budget) -> list[int]:
            with _stage("categorize"):
                return _categorize(items, budget)
        """,
    )
    assert findings == []


def test_mos017_escaping_error_reproduction(tmp_path):
    """A TraceFormatError raised two hops down escapes an unguarded
    call chain in a non-reader module."""
    findings = _lint(
        tmp_path,
        "MOS017",
        analysis="""
        class TraceFormatError(ValueError):
            pass

        def _decode(blob: bytes) -> bytes:
            if len(blob) < 8:
                raise TraceFormatError("truncated")
            return blob[8:]

        def _payload(blob: bytes) -> int:
            return len(_decode(blob))

        def summarize(blobs: list[bytes]) -> list[int]:
            return [_payload(b) for b in blobs]
        """,
    )
    assert findings, "expected MOS017 findings"
    assert {f.rule_id for f in findings} == {"MOS017"}
    messages = [f.message for f in findings]
    assert any("escape summarize()" in m for m in messages)
    deep = next(f for f in findings if "escape summarize()" in f.message)
    notes = [s.note for s in deep.trace]
    # Trace walks raise → intermediate hop → flagged call site.
    assert len(deep.trace) >= 3
    assert "unguarded call in summarize()" in notes[-1]


def test_mos017_handled_at_call_site_is_clean(tmp_path):
    findings = _lint(
        tmp_path,
        "MOS017",
        analysis="""
        class TraceFormatError(ValueError):
            pass

        class CorpusError(RuntimeError):
            pass

        def _decode(blob: bytes) -> bytes:
            if len(blob) < 8:
                raise TraceFormatError("truncated")
            return blob[8:]

        def summarize(blobs: list[bytes]) -> list[int]:
            sizes: list[int] = []
            for blob in blobs:
                try:
                    sizes.append(len(_decode(blob)))
                except TraceFormatError as exc:
                    raise CorpusError("bad record") from exc
            return sizes
        """,
    )
    assert findings == []
