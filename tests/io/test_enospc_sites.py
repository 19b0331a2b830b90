"""Exhaustive ENOSPC sweep over every persistence site.

For each artifact the system writes, :func:`repro.testing.op_census`
enumerates every VFS primitive the site performs fault-free, then each
test re-runs the site with ``ENOSPC`` scripted at each primitive in
turn and asserts the storage contract (docs/ROBUSTNESS.md):

* the failure is a typed :class:`StorageError` naming op and path —
  never a silent truncation (the lint cache, which deliberately trades
  its artifact for availability, must swallow it instead);
* the final path is *absent or complete*: either untouched (old
  content or nothing) or the entire new artifact (the ``fsync_dir``
  case — the rename already landed, only its durability report failed);
* append-only journals stay loadable: whatever survives parses and
  reports only outcomes that were actually settled.
"""

import errno
import json
import shutil

import pytest

from repro.columnar import compile_corpus
from repro.core.result import save_results_jsonl
from repro.darshan.source import InMemorySource
from repro.io import StorageError, scoped_io
from repro.lint.baseline import Baseline
from repro.lint.cache import LintCache
from repro.parallel.journal import (
    JournalState,
    JournalWriter,
    write_quarantine_manifest,
)
from repro.synth import FleetConfig, generate_fleet
from repro.testing import StorageChaos
from repro.viz.export import write_csv


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(FleetConfig(n_apps=24, mean_runs=1.5, seed=5)).traces


def _site_compile(fleet):
    def run(root):
        compile_corpus(InMemorySource(fleet), str(root / "corpus.mosc"))

    return run, ["corpus.mosc"]


def _site_journal(root):
    with JournalWriter(str(root / "run.jsonl")) as journal:
        journal.write_header(n_selected=2)
        journal.record_result(1, json.dumps({"job_id": 1, "categories": ["a"]}))
        journal.record_failure(
            {
                "job_id": 2,
                "failure_kind": "timeout",
                "error_type": "TaskTimeout",
                "message": "deadline",
                "attempts": 1,
            }
        )


def _site_quarantine(root):
    write_quarantine_manifest(
        str(root / "run.jsonl"),
        [{"job_id": 7, "failure_kind": "poison", "error_type": "X"}],
    )


def _site_lint_cache(root):
    cache = LintCache(str(root / "lint.cache.json"), key="k")
    cache.store_project("k", [], 0)
    cache.save()


def _site_baseline(root):
    Baseline.from_findings([]).save(str(root / "baseline.json"))


def _site_csv(root):
    write_csv("a,b\n1,2\n", str(root / "table.csv"))


def _site_results(root):
    save_results_jsonl([], str(root / "results.jsonl"))


def _per_op_indexes(census):
    """Chronological census -> [(op, per-op call index), ...]."""
    seen = {}
    out = []
    for op, _path in census:
        idx = seen.get(op, 0)
        seen[op] = idx + 1
        out.append((op, idx))
    return out


def _reset(root):
    if root.exists():
        shutil.rmtree(root)
    root.mkdir()
    return root


def _sweep(tmp_path, action, artifacts, *, swallows=False, check=None):
    """Inject ENOSPC at every primitive the site performs; assert the
    absent-or-complete contract at each artifact path."""
    root = _reset(tmp_path / "site")
    with scoped_io(StorageChaos(root)) as chaos:
        action(root)
        census = list(chaos.ops_log)
    assert census, "site performed no VFS primitives: seam not routed"
    expected = {
        name: (root / name).read_bytes() if (root / name).exists() else None
        for name in artifacts
    }

    for op, idx in _per_op_indexes(census):
        root = _reset(tmp_path / "site")
        chaos = StorageChaos(root, script={(op, idx): errno.ENOSPC})
        with scoped_io(chaos):
            if swallows:
                action(root)  # must not leak the failure to the caller
            else:
                with pytest.raises(StorageError) as exc_info:
                    action(root)
                assert exc_info.value.errno == errno.ENOSPC
                assert exc_info.value.op
                assert exc_info.value.path
        assert chaos.injected, f"scripted fault at ({op}, {idx}) never fired"
        for name in artifacts:
            path = root / name
            content = path.read_bytes() if path.exists() else None
            if check is not None:
                check(name, content, expected[name], (op, idx))
            else:
                assert content in (None, expected[name]), (
                    f"torn artifact {name} after ENOSPC at ({op}, {idx})"
                )


class TestAtomicSites:
    def test_compile_store(self, tmp_path, small_fleet):
        run, artifacts = _site_compile(small_fleet)
        _sweep(tmp_path, run, artifacts)

    def test_quarantine_manifest(self, tmp_path):
        def check(name, content, complete, locus):
            assert content in (None, complete), f"torn manifest at {locus}"
            if content is not None:
                json.loads(content)  # parseable, with the full entry set

        _sweep(
            tmp_path,
            _site_quarantine,
            ["run.jsonl.quarantine.json"],
            check=check,
        )

    def test_lint_baseline(self, tmp_path):
        _sweep(tmp_path, _site_baseline, ["baseline.json"])

    def test_csv_export(self, tmp_path):
        _sweep(tmp_path, _site_csv, ["table.csv"])

    def test_results_jsonl(self, tmp_path):
        _sweep(tmp_path, _site_results, ["results.jsonl"])

    def test_lint_cache_swallows_but_never_tears(self, tmp_path):
        # the cache is a performance artifact: losing it must not fail
        # the lint run, but a torn cache on disk is still forbidden
        _sweep(
            tmp_path, _site_lint_cache, ["lint.cache.json"], swallows=True
        )


class TestJournalSite:
    def test_every_op_leaves_a_loadable_journal(self, tmp_path):
        def check(name, content, complete, locus):
            if content is None:
                return  # nothing visible: fault before creation
            state = JournalState.load(
                tmp_path / "site" / name
            )
            # only settled outcomes, never invented ones
            assert set(state.completed) <= {1}
            assert set(state.quarantined) <= {2}

        _sweep(tmp_path, _site_journal, ["run.jsonl"], check=check)
