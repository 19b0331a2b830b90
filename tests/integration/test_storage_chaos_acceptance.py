"""Storage-chaos acceptance: ≥1000 scripted fault cases, one invariant.

Every persistence site is swept with every fault kind at every VFS
primitive it performs (the op census is the case generator), and each
case must resolve into exactly one of the allowed outcomes:

* the operation **succeeds** (a transient fault was retried) and the
  artifact is byte-complete;
* the operation fails with a **typed** :class:`StorageError` (or the
  site's documented swallow) and the final path is absent-or-complete —
  never torn;
* a **power cut** interrupts it, and the post-cut durable state is
  absent-or-complete; a cut store that *is* visible passes
  ``verify_store`` or is salvageable.

The full sweep is the CI gate (the ``storage-chaos`` job); set
``MOSAIC_STORAGE_CHAOS_CASES=N`` to stride-sample roughly N cases for a
quick local run (the ≥1000 floor is only asserted on the full sweep).
A machine-readable summary lands at ``MOSAIC_CHAOS_REPORT`` (or
``<tmp>/chaos-report.json``) for CI artifact upload.
"""

import contextlib
import errno
import json
import os
import shutil

import pytest

from repro.columnar import compile_corpus, verify_store
from repro.darshan.source import InMemorySource
from repro.io import StorageError, scoped_io
from repro.lint.baseline import Baseline
from repro.parallel.jobstore import JobStore
from repro.parallel.journal import (
    JournalState,
    JournalWriter,
    write_quarantine_manifest,
)
from repro.service import ResultCache
from repro.synth import FleetConfig, generate_fleet
from repro.testing import (
    FAULT_POWER_CUT,
    FAULT_SHORT_WRITE,
    PowerCut,
    StorageChaos,
)
from repro.viz.export import write_csv

FAULTS = (
    errno.ENOSPC,
    errno.EDQUOT,
    errno.EIO,
    errno.EINTR,
    errno.EROFS,
    FAULT_SHORT_WRITE,
    FAULT_POWER_CUT,
)

_FLEET = None


def _fleet():
    global _FLEET
    if _FLEET is None:
        _FLEET = generate_fleet(
            FleetConfig(n_apps=24, mean_runs=1.5, seed=13)
        ).traces
    return _FLEET


# -- sites -------------------------------------------------------------
def _site_compile(root):
    compile_corpus(InMemorySource(_fleet()), str(root / "corpus.mosc"))


def _site_journal(root):
    with JournalWriter(str(root / "run.jsonl"), sync_interval=5) as journal:
        journal.write_header(n_selected=30)
        for job in range(30):
            journal.record_result(job, json.dumps({"job_id": job, "categories": ["a"]}))


def _site_journal_sync1(root):
    # fsync-per-line (JournalWriter's default): every op is a case
    with JournalWriter(str(root / "sync1.jsonl")) as journal:
        journal.write_header(n_selected=9)
        for job in range(9):
            journal.record_result(job, json.dumps({"job_id": job}))


def _site_journal_resume(root):
    path = str(root / "resume.jsonl")
    if not os.path.exists(path):
        # seed a prior run outside the fault window
        with JournalWriter(path) as journal:
            journal.write_header(n_selected=8)
            journal.record_result(0, json.dumps({"job_id": 0}))
    with JournalWriter(path, append=True, sync_interval=2) as journal:
        for job in range(1, 8):
            journal.record_result(job, json.dumps({"job_id": job}))


#: Settle seqs published by the last ``jobstore-commit`` run: on_commit
#: fires only after the commit's fsync, so each one must be durable.
_PUBLISHED: list[int] = []


def _site_jobstore_commit(root):
    # group commit: three units of settles, one commit each
    _PUBLISHED.clear()
    store = JobStore(
        str(root / "job.jsonl"),
        on_commit=lambda events: _PUBLISHED.extend(seq for _k, _j, seq in events),
    )
    store.open(n_selected=8)
    try:
        for unit in ((0, 1, 2), (3, 4), (5, 6, 7)):
            for job in unit:
                if job == 4:
                    store.settle_failure(
                        job, failure_kind="exception", error_type="E", message="m"
                    )
                else:
                    store.settle_result(job, json.dumps({"job_id": job}))
            store.commit()
    except StorageError:
        with contextlib.suppress(StorageError):
            store.close()
        raise
    store.close()


#: (key, line) pairs the ``cache-segment`` site puts, two units.
_CACHE_ENTRIES = [
    (f"{i:040x}", json.dumps({"job_id": i, "categories": ["c" * (i % 5)]}))
    for i in range(10)
]


def _site_cache_segment(root):
    # puts plus one commit per unit; storage errors are swallowed into
    # put_errors, so only a power cut escapes
    cache = ResultCache(root / "cache", namespace="ns")
    for unit in (_CACHE_ENTRIES[:6], _CACHE_ENTRIES[6:]):
        for key, payload in unit:
            cache.put(key, payload)
        cache.commit()
    cache.close()


def _site_quarantine(root):
    write_quarantine_manifest(
        str(root / "run.jsonl"),
        [{"job_id": j, "failure_kind": "timeout"} for j in range(4)],
    )


def _site_baseline(root):
    Baseline.from_findings([]).save(str(root / "baseline.json"))


def _site_csv(root):
    write_csv("a,b\n" + "\n".join(f"{i},{i}" for i in range(50)), str(root / "t.csv"))


SITES = {
    "compile": (_site_compile, "corpus.mosc"),
    "journal": (_site_journal, "run.jsonl"),
    "journal-sync1": (_site_journal_sync1, "sync1.jsonl"),
    "journal-resume": (_site_journal_resume, "resume.jsonl"),
    "jobstore-commit": (_site_jobstore_commit, "job.jsonl"),
    "cache-segment": (_site_cache_segment, None),
    "quarantine": (_site_quarantine, "run.jsonl.quarantine.json"),
    "baseline": (_site_baseline, "baseline.json"),
    "csv": (_site_csv, "t.csv"),
}


def _per_op_indexes(census):
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


def _check_artifact(site, root, artifact, complete):
    """Absent-or-complete, and loadable by the artifact's own reader."""
    if site == "cache-segment":
        # a rebuilt index serves each key its exact payload, or a miss
        rebuilt = ResultCache(root / "cache", namespace="ns")
        served = [rebuilt.get(key) for key, _payload in _CACHE_ENTRIES]
        for (_key, payload), got in zip(_CACHE_ENTRIES, served):
            assert got is None or got == payload, "cache served a wrong payload"
        rebuilt.close()
        return "complete" if None not in served else "prefix"
    path = root / artifact
    content = path.read_bytes() if path.exists() else None
    if content is None:
        return "absent"
    if site in ("journal", "journal-sync1", "journal-resume", "jobstore-commit"):
        state = JournalState.load(path)  # parses whatever survived
        assert len(state.completed) <= 30
        if site == "jobstore-commit":
            # every settle a client was told about survived
            assert state.n_settle_events >= max(_PUBLISHED, default=0)
        return "complete" if content == complete else "prefix"
    assert content == complete, f"torn {artifact} at {site}"
    if site == "compile":
        assert verify_store(str(path)).clean
    return "complete"


def test_storage_chaos_acceptance(tmp_path):
    budget = int(os.environ.get("MOSAIC_STORAGE_CHAOS_CASES", "0"))
    cases = []
    for site, (action, artifact) in SITES.items():
        root = _reset(tmp_path / site)
        with scoped_io(StorageChaos(root)) as chaos:
            action(root)
            census = list(chaos.ops_log)
        complete = (root / artifact).read_bytes() if artifact else None
        for op, idx in _per_op_indexes(census):
            for fault in FAULTS:
                cases.append((site, action, artifact, complete, op, idx, fault))

    if budget:
        stride = max(1, len(cases) // budget)
        cases = cases[::stride]
    else:
        assert len(cases) >= 1000, (
            f"acceptance sweep shrank to {len(cases)} cases — persistence "
            "sites lost VFS coverage"
        )

    outcomes = {"retried": 0, "typed-error": 0, "power-cut": 0}
    per_site = {site: 0 for site in SITES}
    for site, action, artifact, complete, op, idx, fault in cases:
        root = _reset(tmp_path / site)
        chaos = StorageChaos(root, script={(op, idx): fault})
        try:
            with scoped_io(chaos):
                action(root)
        except StorageError as exc:
            assert exc.op and exc.path, f"untyped failure at {site}:{op}#{idx}"
            outcomes["typed-error"] += 1
        except PowerCut:
            chaos.power_cut()
            outcomes["power-cut"] += 1
        else:
            outcomes["retried"] += 1
        assert chaos.injected, f"fault never fired at {site}:{op}#{idx}"
        _check_artifact(site, root, artifact, complete)
        per_site[site] += 1

    report_path = os.environ.get(
        "MOSAIC_CHAOS_REPORT", str(tmp_path / "chaos-report.json")
    )
    payload = {
        "n_cases": len(cases),
        "fault_kinds": [str(f) for f in FAULTS],
        "outcomes": outcomes,
        "per_site": per_site,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    assert sum(outcomes.values()) == len(cases)
    # sanity: all three outcome classes actually occur in a full sweep
    if not budget:
        assert all(outcomes.values()), outcomes


def test_killed_compile_then_salvage_reports_losses(tmp_path):
    """The end-to-end salvage story: a power cut mid-compile leaves
    either nothing or a complete store; bit rot afterwards is then
    localized and salvaged with an accurate loss report."""
    from repro.columnar import salvage_store

    root = _reset(tmp_path / "e2e")
    out = root / "corpus.mosc"
    chaos = StorageChaos(root, script={("fsync", 0): FAULT_POWER_CUT})
    with scoped_io(chaos):
        with pytest.raises(PowerCut):
            _site_compile(root)
    chaos.power_cut()
    assert not out.exists()  # never half-visible

    _site_compile(root)  # clean retry
    report = verify_store(str(out))
    assert report.clean

    # bit-rot one records byte, then salvage
    with open(out, "r+b") as fh:
        header_raw = fh.read(4096)
    from repro.columnar.format import HEADER_SIZE, unpack_header

    header = unpack_header(header_raw[:HEADER_SIZE])
    offset, _nbytes, _crc = header["sections"]["records"]
    with open(out, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))

    salvaged = root / "salvaged.mosc"
    salvage = salvage_store(str(out), str(salvaged))
    assert salvage.n_lost >= 1
    assert salvage.n_recovered == salvage.n_rows - salvage.n_lost
    assert verify_store(str(salvaged)).clean
