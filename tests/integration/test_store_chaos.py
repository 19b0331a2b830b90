"""Chaos acceptance for the store-backed fast path's mmap seam.

Pool rebuilds and ``--resume`` must *re-open* the store read-only in
every worker process — never inherit a parent mapping through fork, and
never a writable view.  The per-process attach cache is keyed by pid
and file identity exactly so this seam cannot regress silently; this
module drives it end to end: a crashing slice forces pool rebuilds, the
rebuilt workers reattach and finish the corpus, and a killed journal
resumes to byte-identical results on fresh worker processes.
"""

import concurrent.futures
import functools
import json
import os

import pytest

from repro.columnar import attach, compile_corpus, plan_slices, scan_store
from repro.core import DEFAULT_CONFIG, run_pipeline_store, save_results_jsonl
from repro.core.pipeline import PipelineContext
from repro.darshan import DirectorySource, save_binary
from repro.parallel import ParallelConfig
from repro.parallel.retry import FailureKind, RetryPolicy
from repro.synth import FleetConfig, generate_fleet
from repro.testing import ChaosInjector, item_key

#: Small slice budget so the 25-app corpus plans several slices — the
#: chaos faults need distinct victim slices and survivors.
SLICE_OPS = 500


def _probe_attach(store_path: str) -> tuple[int, bool, bool]:
    """Worker-side probe: attach and report
    (pid, mapping-is-read-only, cache-was-rekeyed-to-this-pid)."""
    from repro.columnar import store as store_mod

    store = attach(store_path)
    try:
        store._mmap[0:1] = b"\x00"
        read_only = False
    except TypeError:  # "mmap can't modify a readonly memory map"
        read_only = True
    cached = store_mod._ATTACHED.get(os.path.abspath(store_path))
    rekeyed = cached is not None and cached[0] == os.getpid()
    return os.getpid(), read_only, rekeyed


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    base = tmp_path_factory.mktemp("store-chaos")
    fleet = generate_fleet(FleetConfig(n_apps=25, mean_runs=2.0, seed=17))
    trace_dir = base / "traces"
    trace_dir.mkdir()
    for trace in fleet.traces:
        save_binary(trace, trace_dir / f"job{trace.meta.job_id:08d}.mosd")
    out = base / "corpus.mosc"
    compile_corpus(DirectorySource(trace_dir), out)
    return str(out)


@pytest.fixture(scope="module")
def planned_slices(store_path):
    """The same slice plan ``run_pipeline_store`` will compute, so a
    chaos fault can target one slice by its stable item key."""
    store = attach(store_path)
    plan = scan_store(store)
    rows = [int(entry.ref.key) for entry in plan.selected]
    slices = plan_slices(
        store, rows, budget=DEFAULT_CONFIG.budget, target_ops=SLICE_OPS
    )
    assert len(slices) >= 2, "corpus too small to plan multiple slices"
    return store, plan, slices


class TestWorkerReattachment:
    def test_workers_reopen_read_only_with_fresh_pids(self, store_path):
        # warm the parent cache first: children must not reuse it
        parent_store = attach(store_path)
        assert parent_store is attach(store_path)
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            probes = list(
                pool.map(_probe_attach, [store_path] * 4, chunksize=1)
            )
        for pid, read_only, rekeyed in probes:
            assert pid != os.getpid()
            assert read_only, "worker mapping must be ACCESS_READ"
            assert rekeyed, (
                "worker must re-open the store, not inherit the "
                "parent's cached mapping through fork"
            )


class TestStoreChaos:
    @pytest.fixture(scope="class")
    def chaos_run(self, store_path, planned_slices, tmp_path_factory):
        _store, _plan, slices = planned_slices
        crash_slice, flaky_slice = slices[0], slices[1]
        tmp = tmp_path_factory.mktemp("chaos-run")
        state = tmp / "state"
        state.mkdir()
        journal = tmp / "run.jsonl"
        ctx = PipelineContext(
            parallel=ParallelConfig(
                max_workers=2,
                retry=RetryPolicy(task_timeout_s=10.0, max_pool_rebuilds=10),
            ),
            wrap_worker=functools.partial(
                ChaosInjector,
                crash_keys=frozenset({item_key(crash_slice)}),
                flaky_keys=frozenset({item_key(flaky_slice)}),
                state_dir=str(state),
            ),
        )
        result = run_pipeline_store(
            store_path,
            parallel=ctx.parallel,
            context=ctx,
            journal_path=journal,
            slice_ops=SLICE_OPS,
        )
        return {
            "result": result,
            "journal": journal,
            "tmp": tmp,
            "crash_rows": set(crash_slice.rows),
            "flaky_rows": set(flaky_slice.rows),
        }

    def test_rebuilt_pool_finishes_the_corpus(
        self, chaos_run, planned_slices
    ):
        _store, plan, _slices = planned_slices
        result = chaos_run["result"]
        # every trace outside the crashing slice is categorized —
        # including the flaky slice, whose retry ran on a worker that
        # had to reattach the store
        assert len(result.results) == plan.n_selected - len(
            chaos_run["crash_rows"]
        )
        assert result.metrics["n_pool_rebuilds"] >= 1
        # the flaky slice recovered — either its injected OSError
        # surfaced (journaled retry) or a pool crash swallowed the
        # first attempt and the re-dispatch found the recovery marker;
        # both paths ran on a worker that had to reattach
        assert (
            result.metrics.get("n_retries", 0)
            + result.metrics.get("n_crash_events", 0)
        ) >= 1

    def test_crashed_slice_quarantined_per_trace(self, chaos_run):
        result = chaos_run["result"]
        assert result.n_failures == len(chaos_run["crash_rows"])
        assert result.metrics["n_quarantined"] == len(
            chaos_run["crash_rows"]
        )
        with open(
            f"{chaos_run['journal']}.quarantine.json", encoding="utf-8"
        ) as fh:
            manifest = json.load(fh)
        assert manifest["n_quarantined"] == len(chaos_run["crash_rows"])
        rows = {
            int(e["trace_key"].rpartition("#")[2])
            for e in manifest["quarantined"]
        }
        assert rows == chaos_run["crash_rows"]
        kinds = {e["failure_kind"] for e in manifest["quarantined"]}
        assert kinds == {FailureKind.POISON.value}

    def test_killed_run_resumes_byte_identical_on_fresh_workers(
        self, chaos_run, store_path
    ):
        """Keep the header, every failure record, and the first three
        results — then resume pooled: the re-opened store must replay
        the healthy remainder to byte-identical output while the
        quarantined slice stays quarantined."""
        tmp = chaos_run["tmp"]
        baseline = tmp / "baseline.jsonl"
        save_results_jsonl(chaos_run["result"].results, str(baseline))

        with open(chaos_run["journal"], encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh.readlines()]
        header = [e for e in lines if e["kind"] == "header"]
        failures = [e for e in lines if e["kind"] == "failure"]
        results = [e for e in lines if e["kind"] == "result"][:3]
        killed = tmp / "killed.jsonl"
        with open(killed, "w", encoding="utf-8") as fh:
            for entry in header + failures + results:
                fh.write(json.dumps(entry) + "\n")

        resumed = run_pipeline_store(
            store_path,
            parallel=ParallelConfig(max_workers=2),
            journal_path=killed,
            resume=True,
            slice_ops=SLICE_OPS,
        )
        assert resumed.metrics["n_resumed"] == len(failures) + len(results)
        resumed_path = tmp / "resumed.jsonl"
        save_results_jsonl(resumed.results, str(resumed_path))
        assert resumed_path.read_bytes() == baseline.read_bytes()
