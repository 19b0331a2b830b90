"""A selected trace that breaks between pass ① and pass ②.

The scan decodes every trace and selects one per application; pass ②
ships units of selected refs and each worker reads its unit's traces.
When a selected file is deleted, or overwritten with garbage, after the
scan, its read fails in the worker.  That failure is a transient unit
failure of the executor: retried up to ``max_retries`` times; the unit
is then split and each trace replayed alone, where the broken one fails
again, is retried as often, and is journaled as that trace's
``exception`` failure, never quarantined, so a resumed run tries the
restored file again.  Every other trace
categorizes exactly as in a clean run, serially and on a pool.
"""

import json
import os

import pytest

from repro.core import run_pipeline_stream, save_results_jsonl
from repro.darshan import DirectorySource, save_binary, save_json
from repro.parallel import ParallelConfig
from repro.parallel.retry import RetryPolicy
from repro.synth import FleetConfig, generate_fleet

POLICY = RetryPolicy(backoff_base_s=0, backoff_cap_s=0)


class BreakAfterScan(DirectorySource):
    """A directory whose ``victim`` file breaks once the scan has read
    it: deleted (``"delete"``) or overwritten with garbage
    (``"garbage"``)."""

    def __init__(self, path, victim, how):
        super().__init__(path)
        self.victim = victim
        self.how = how

    def record_batches(self, **kwargs):
        yield from super().record_batches(**kwargs)
        if self.how == "delete":
            os.unlink(self.victim)
        else:
            with open(self.victim, "w", encoding="utf-8") as fh:
                fh.write("{not a trace")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One run per application, so every trace is selected; the first
    trace is stored as JSON, the rest as MOSD."""
    path = tmp_path_factory.mktemp("reload-corpus")
    fleet = generate_fleet(
        FleetConfig(n_apps=18, mean_runs=1.0, corruption_fraction=0.0, seed=11)
    )
    files = {}
    for i, trace in enumerate(fleet.traces):
        job_id = trace.meta.job_id
        if i == 0:
            files["json"] = (job_id, path / f"job{job_id:08d}.json")
            save_json(trace, files["json"][1])
        else:
            save_binary(trace, path / f"job{job_id:08d}.mosd")
            files.setdefault("mosd", (job_id, path / f"job{job_id:08d}.mosd"))
    clean = run_pipeline_stream(DirectorySource(path))
    lines = {r.job_id: r.json_line() for r in clean.results}
    assert {job_id for job_id, _ in files.values()} <= set(lines)
    return path, files, lines


def _failures(journal):
    with open(journal, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    return [e for e in entries if e["kind"] == "failure"]


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("how,fmt", [("delete", "mosd"), ("garbage", "json")])
def test_broken_reload_is_retried_then_journaled(corpus, tmp_path, workers, how, fmt):
    path, files, clean = corpus
    job_id, victim = files[fmt]
    saved = victim.read_bytes()
    journal = tmp_path / "run.jsonl"
    parallel = ParallelConfig(max_workers=workers, retry=POLICY)
    try:
        broken = run_pipeline_stream(
            BreakAfterScan(path, victim, how),
            parallel=parallel,
            journal_path=journal,
        )
    finally:
        victim.write_bytes(saved)

    # the loader's error, after the executor's whole retry budget
    (failure,) = _failures(journal)
    assert failure["job_id"] == job_id
    assert failure["failure_kind"] == "exception"
    assert failure["error_type"] == "TraceFormatError"
    assert failure["attempts"] == POLICY.max_retries + 1
    assert failure["trace_key"] == str(victim)
    # the unit of every selected trace spends its retries, is split,
    # and the victim spends its own on its replay alone
    assert broken.metrics["n_split_units"] == 1
    assert broken.metrics["n_retries"] == 2 * POLICY.max_retries
    assert broken.n_failures == 1
    assert "n_quarantined" not in broken.metrics

    # every other trace categorizes as in a clean run
    assert {r.job_id: r.json_line() for r in broken.results} == {
        j: line for j, line in clean.items() if j != job_id
    }

    # not quarantined: with the file restored, a resumed run retries it
    resumed = run_pipeline_stream(
        DirectorySource(path), parallel=parallel, journal_path=journal, resume=True
    )
    assert resumed.metrics["n_resumed"] == len(clean) - 1
    assert {r.job_id: r.json_line() for r in resumed.results} == clean
    out = tmp_path / "resumed.results.jsonl"
    save_results_jsonl(resumed.results, out)
    assert out.read_text(encoding="utf-8") == "".join(
        line + "\n" for line in clean.values()
    )
