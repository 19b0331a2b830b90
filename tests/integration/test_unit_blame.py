"""A failure is settled against one trace, never against a unit.

Pass ② ships units of several traces (a store slice, a stream unit).
When a unit holds a trace that crashes its worker, hangs, or fails to
read, the unit fails as a whole; the pipeline then splits it and runs
its traces one per unit.  Exactly the faulty trace fails, with the
failure kind, error type and per-trace ``attempts`` it would have had
alone, and every other trace's line is byte-identical to a clean run's.

A crash or a hang needs a process pool to survive it, so those cases
run at 2 workers; one worker runs in process (the executor's serial
path), where the fault is a trace whose every execution raises.
"""

import functools
import json
import os

import pytest

from repro.columnar import attach, compile_corpus, scan_store
from repro.core import run_pipeline_store, run_pipeline_stream
from repro.core.categorizer import MAX_SLICE_TRACES
from repro.core.pipeline import PipelineContext
from repro.darshan import DirectorySource, InMemorySource, save_binary
from repro.parallel import ParallelConfig
from repro.parallel.retry import RetryPolicy
from repro.synth import FleetConfig, generate_fleet
from repro.testing import ChaosInjector

POLICY = RetryPolicy(
    task_timeout_s=2.0, backoff_base_s=0, backoff_cap_s=0, max_pool_rebuilds=10
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One run per application, so every trace is selected and the
    whole corpus is one unit on either route."""
    base = tmp_path_factory.mktemp("blame")
    traces = base / "traces"
    traces.mkdir()
    fleet = generate_fleet(
        FleetConfig(n_apps=18, mean_runs=1.0, corruption_fraction=0.0, seed=23)
    )
    for trace in fleet.traces:
        save_binary(trace, traces / f"job{trace.meta.job_id:08d}.mosd")
    store = base / "corpus.mosc"
    compile_corpus(DirectorySource(traces), store)
    clean = run_pipeline_stream(DirectorySource(traces))
    return traces, store, {r.job_id: r.json_line() for r in clean.results}


def _failures(journal):
    with open(journal, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    return [e for e in entries if e["kind"] == "failure"]


def _assert_blamed(result, journal, clean, victim):
    """Exactly ``victim`` failed; every other line is the clean one."""
    (failure,) = _failures(journal)
    assert failure["job_id"] == victim
    assert result.n_failures == 1
    assert result.metrics["n_split_units"] == 1
    assert {r.job_id: r.json_line() for r in result.results} == {
        job_id: line for job_id, line in clean.items() if job_id != victim
    }
    return failure


@pytest.fixture(scope="module")
def full_slice(tmp_path_factory):
    """A store whose one slice holds ``MAX_SLICE_TRACES`` selected rows,
    with a clean run's lines."""
    store = tmp_path_factory.mktemp("full-slice") / "corpus.mosc"
    fleet = generate_fleet(
        FleetConfig(
            n_apps=MAX_SLICE_TRACES, mean_runs=1.0, corruption_fraction=0.0, seed=23
        )
    )
    compile_corpus(InMemorySource(fleet.traces), store)
    clean = run_pipeline_store(store)
    assert clean.metrics["n_slices"] == 1
    assert clean.n_categorized == MAX_SLICE_TRACES
    return store, {r.job_id: r.json_line() for r in clean.results}


FAULTS = pytest.mark.parametrize(
    "fault,workers,kind,error_type",
    [
        ("crash", 2, "poison", "WorkerCrash"),
        ("hang", 2, "timeout", "TaskTimeout"),
        ("raise", 1, "exception", "OSError"),
        ("raise", 2, "exception", "OSError"),
    ],
)


def _blame_one_row(store, clean, journal, fault, workers, kind, error_type):
    """Fault the middle row of ``store``'s one slice; exactly that row
    fails, as ``kind``/``error_type``, with the attempts it would have
    spent alone."""
    plan = scan_store(attach(str(store)))
    victim = plan.refs[len(plan.refs) // 2]
    key = frozenset({f"row:{int(victim.ref.key)}"})
    ctx = PipelineContext(
        parallel=ParallelConfig(max_workers=workers, retry=POLICY),
        wrap_worker=functools.partial(
            ChaosInjector,
            crash_keys=key if fault == "crash" else frozenset(),
            hang_keys=key if fault == "hang" else frozenset(),
            # no state directory: every execution raises
            flaky_keys=key if fault == "raise" else frozenset(),
            hang_seconds=60.0,
        ),
    )
    result = run_pipeline_store(store, context=ctx, journal_path=journal)
    failure = _assert_blamed(result, journal, clean, victim.job_id)
    assert (failure["failure_kind"], failure["error_type"]) == (kind, error_type)
    assert failure["trace_key"] == f"{os.path.abspath(store)}#{int(victim.ref.key)}"
    # the attempts the trace spent alone, as in a run of one-trace units
    retried = POLICY.max_retries + 1 if fault == "raise" else 1
    assert failure["attempts"] == retried
    assert result.metrics.get("n_quarantined", 0) == (fault != "raise")


@FAULTS
def test_store_slice_blames_one_row(corpus, tmp_path, fault, workers, kind, error_type):
    _traces, store, clean = corpus
    _blame_one_row(
        store, clean, tmp_path / "run.jsonl", fault, workers, kind, error_type
    )


@FAULTS
def test_full_store_slice_blames_one_row(
    full_slice, tmp_path, fault, workers, kind, error_type
):
    """The same blame when the row shares its slice with
    ``MAX_SLICE_TRACES - 1`` others."""
    store, clean = full_slice
    _blame_one_row(
        store, clean, tmp_path / "run.jsonl", fault, workers, kind, error_type
    )


class BreakAfterScan(DirectorySource):
    """A directory whose ``victim`` file is deleted once the scan has
    read it."""

    def __init__(self, path, victim):
        super().__init__(path)
        self.victim = victim

    def record_batches(self, **kwargs):
        yield from super().record_batches(**kwargs)
        os.unlink(self.victim)


@pytest.mark.parametrize("workers", [0, 2])
def test_stream_unit_blames_the_member_that_fails_to_read(corpus, tmp_path, workers):
    traces, _store, clean = corpus
    victim_id = sorted(clean)[len(clean) // 2]
    victim = traces / f"job{victim_id:08d}.mosd"
    saved = victim.read_bytes()
    journal = tmp_path / "run.jsonl"
    try:
        result = run_pipeline_stream(
            BreakAfterScan(traces, victim),
            parallel=ParallelConfig(max_workers=workers, retry=POLICY),
            journal_path=journal,
        )
    finally:
        victim.write_bytes(saved)
    failure = _assert_blamed(result, journal, clean, victim_id)
    assert (failure["failure_kind"], failure["error_type"]) == ("exception", "TraceFormatError")
    assert failure["trace_key"] == str(victim)
    assert failure["attempts"] == POLICY.max_retries + 1
