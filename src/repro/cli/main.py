"""``mosaic`` command-line interface.

Subcommands mirror the paper's workflow:

``mosaic generate``
    Produce a synthetic Blue Waters-style corpus on disk (binary MOSD or
    JSON traces plus a ground-truth manifest).
``mosaic compile``
    Compile a trace directory into a columnar corpus store (``.mosc``),
    enabling the zero-copy batched fast path (docs/COLUMNAR.md).
``mosaic verify``
    Audit a compiled store's integrity (header, section and per-trace
    CRCs, index bounds); ``--repair`` salvages every intact trace from
    a damaged store into a new file and reports exactly what was lost.
``mosaic categorize``
    Run the full MOSAIC pipeline over a trace directory — or a compiled
    store via ``--store`` — and save per-trace JSON results (workflow
    step ④).
``mosaic report``
    Categorize (or load) and print the paper's tables: funnel (Fig. 3),
    periodicity (Table II), temporality (Table III), metadata (Fig. 4),
    Jaccard pairs (Fig. 5) and §IV-D correlations.
``mosaic anatomy``
    Render the Fig. 2-style processing view of one synthetic trace.
``mosaic serve``
    Run the pipeline as a long-lived HTTP service: submit corpora over
    HTTP, poll or stream (SSE) results, with a content-addressed result
    cache, journal-resumable jobs, bounded admission (429/503 +
    Retry-After under overload), and SIGTERM graceful drain
    (docs/SERVICE.md).
``mosaic submit`` / ``mosaic watch``
    The resilient client side of ``mosaic serve``: submit a corpus with
    a content-derived idempotency key (safe resubmission), and follow a
    job's settle stream over SSE with deterministic retry, a circuit
    breaker, and ``Last-Event-ID`` resume across severed connections
    and server restarts.
``mosaic lint``
    Statically check the codebase against the pipeline's contracts
    (MOS001-MOS011, see ``docs/LINT.md``).  Also installed as ``repro``,
    so CI runs ``repro lint src/ --strict``.

Corpus-scale runs are fault-tolerant (docs/ROBUSTNESS.md): ``--journal``
checkpoints per-trace outcomes so a killed run resumes with ``--resume``,
``--task-timeout`` quarantines hung traces, and ``--chaos SEED`` injects
a deterministic fault schedule to rehearse all of it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from typing import Any, Callable, Sequence

import numpy as np

from .. import __version__
from ..core import run_pipeline_stream, save_results_jsonl
from ..io import StorageError, atomic_write_text
from ..core.governor import ResourceBudget
from ..core.pipeline import PipelineContext, PipelineResult
from ..core.thresholds import DEFAULT_CONFIG, MosaicConfig
from ..darshan import (
    DirectorySource,
    SyntheticSource,
    TraceFormatError,
    TraceSource,
    save_binary,
    save_json,
)
from ..parallel import ParallelConfig, PoolRebuildLimit, RetryPolicy

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosaic",
        description="MOSAIC: detection and categorization of I/O patterns "
        "in HPC applications (reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--n-apps", type=int, default=400)
    gen.add_argument("--mean-runs", type=float, default=12.5)
    gen.add_argument("--seed", type=int, default=20190101)
    gen.add_argument(
        "--format", choices=("binary", "json"), default="binary",
        help="trace encoding (binary MOSD is ~5x smaller)",
    )

    comp = sub.add_parser(
        "compile",
        help="compile a trace directory into a columnar corpus store "
        "(.mosc) for the zero-copy fast path (docs/COLUMNAR.md)",
    )
    comp.add_argument("--traces", required=True, help="trace directory")
    comp.add_argument("--out", required=True, help="output .mosc path")
    comp.add_argument(
        "--repair", action="store_true",
        help="bake conservative repair into the compiled traces "
        "(a store is compiled with or without repair, once)",
    )

    ver = sub.add_parser(
        "verify",
        help="audit a compiled store's integrity (header, section and "
        "per-trace CRCs, index bounds); --repair salvages every intact "
        "trace from a damaged store into a new file",
    )
    ver.add_argument("store", help="compiled .mosc store to audit")
    ver.add_argument(
        "--repair",
        action="store_true",
        help="salvage intact traces into a new store (see --out)",
    )
    ver.add_argument(
        "--out",
        help="salvaged store path (default: STORE.repaired.mosc)",
    )
    ver.add_argument(
        "--json",
        dest="json_out",
        help="also write the verify/salvage report as JSON to this path",
    )

    cat = sub.add_parser("categorize", help="categorize a trace directory")
    cat.add_argument("--traces", help="trace directory")
    cat.add_argument(
        "--store", metavar="PATH",
        help="compiled .mosc corpus store (see `mosaic compile`): runs "
        "the zero-copy batched fast path instead of --traces",
    )
    cat.add_argument("--out", required=True, help="results JSONL path")
    cat.add_argument("--workers", type=int, default=0,
                     help="process-pool workers (0 or 1 runs in process; "
                     "a pool needs at least 2)")
    cat.add_argument("--repair", action="store_true",
                     help="attempt conservative repair of corrupted traces "
                     "instead of evicting them outright")
    _add_resilience_flags(cat)

    rep = sub.add_parser("report", help="categorize and print paper tables")
    rep.add_argument("--traces", help="trace directory (omit to synthesize)")
    rep.add_argument(
        "--store", metavar="PATH",
        help="compiled .mosc corpus store: categorize via the batched "
        "fast path instead of --traces / synthesis",
    )
    rep.add_argument("--n-apps", type=int, default=400,
                     help="synthetic corpus size when --traces is omitted")
    rep.add_argument("--seed", type=int, default=20190101)
    rep.add_argument("--workers", type=int, default=0)
    rep.add_argument("--repair", action="store_true",
                     help="attempt conservative repair of corrupted traces")
    _add_resilience_flags(rep)
    rep.add_argument(
        "--chaos", type=int, metavar="SEED",
        help="inject a deterministic fault schedule (crashes, hangs, "
        "transient errors) to rehearse the resilient executor; "
        "requires --workers >= 2",
    )

    ana = sub.add_parser("anatomy", help="render one trace's processing view")
    ana.add_argument("--cohort", default="rcw_ckpt_periodic",
                     help="synthetic cohort name")
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--width", type=int, default=80)

    acc = sub.add_parser(
        "accuracy",
        help="estimate categorization accuracy against a generated "
        "corpus's ground-truth manifest (SIV-E protocol)",
    )
    acc.add_argument("--traces", required=True,
                     help="directory written by `mosaic generate`")
    acc.add_argument("--sample-size", type=int, default=512)
    acc.add_argument("--seed", type=int, default=0)
    acc.add_argument("--workers", type=int, default=0)

    disc = sub.add_parser(
        "discover",
        help="discover temporality classes by clustering (SV future work)",
    )
    disc.add_argument("--traces", help="trace directory (omit to synthesize)")
    disc.add_argument("--n-apps", type=int, default=400)
    disc.add_argument("--seed", type=int, default=20190101)
    disc.add_argument("--direction", choices=("read", "write"), default="write")
    disc.add_argument("--k", type=int, help="cluster count (omit for elbow rule)")

    fz = sub.add_parser(
        "fuzz",
        help="fuzz the trace readers: parse, raise TraceFormatError, or "
        "repair -- never crash, hang, or allocate beyond budget "
        "(docs/ROBUSTNESS.md)",
    )
    fz.add_argument("--formats", default="binary,json,text",
                    help="comma-separated reader formats to fuzz")
    fz.add_argument("--cases", type=int, default=1000,
                    help="mutated payloads per format")
    fz.add_argument("--seed", type=int, default=20190101)
    fz.add_argument("--deadline", type=float, default=5.0, metavar="SECONDS",
                    help="per-case wall-clock deadline (0 disables)")
    fz.add_argument("--alloc-budget", type=int, default=64 * 1024 * 1024,
                    metavar="BYTES",
                    help="per-case tracemalloc peak budget (0 disables)")
    fz.add_argument("--replay", metavar="DIR",
                    help="replay a saved regression corpus instead of "
                    "generating new cases (CI mode)")
    fz.add_argument("--save-findings", metavar="DIR",
                    help="write minimized reproducers for any findings "
                    "under DIR (one file per finding)")

    srv = sub.add_parser(
        "serve",
        help="run the categorization service: accept job submissions "
        "over HTTP, journal every outcome for crash-safe resume, and "
        "serve cached results for already-seen traces (docs/SERVICE.md)",
    )
    srv.add_argument(
        "--data-dir", required=True,
        help="service state root (job registry, journals, result cache)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8377,
        help="listen port (0 = ephemeral; the bound port is published "
        "in <data-dir>/server.json either way)",
    )
    srv.add_argument("--workers", type=int, default=0,
                     help="process-pool workers per job (0 or 1 runs in "
                     "process; a pool needs at least 2)")
    srv.add_argument(
        "--budget-max-ops", type=int, metavar="N",
        help="per-trace operation budget applied to every job "
        "(see `mosaic categorize`)",
    )
    srv.add_argument(
        "--budget-max-bytes", type=int, metavar="BYTES",
        help="per-trace working-set budget applied to every job",
    )
    srv.add_argument(
        "--stage-deadline", type=float, metavar="SECONDS",
        help="soft per-stage deadline applied to every job",
    )
    srv.add_argument(
        "--max-queue-depth", type=int, metavar="N",
        help="pending jobs beyond which submissions shed 429 "
        "(default: 64)",
    )
    srv.add_argument(
        "--max-inflight", type=int, metavar="N",
        help="concurrent HTTP requests beyond which connections shed "
        "503 (default: 128)",
    )
    srv.add_argument(
        "--drain-timeout", type=float, metavar="SECONDS",
        help="graceful-drain budget after SIGTERM before escalating to "
        "the journal-resume path (default: 30)",
    )
    srv.add_argument(
        "--sse-keepalive", type=float, metavar="SECONDS",
        help="SSE heartbeat-comment interval (default: 15)",
    )

    smt = sub.add_parser(
        "submit",
        help="submit a corpus to a running mosaic serve instance, with "
        "an idempotency key derived from the .mosc CRC chain so "
        "retried submissions never double-run (docs/SERVICE.md)",
    )
    smt.add_argument("--store", metavar="PATH",
                     help="server-visible compiled .mosc store")
    smt.add_argument("--traces", metavar="PATH",
                     help="server-visible trace directory")
    smt.add_argument("--repair", action="store_true",
                     help="ask the server to apply repair heuristics")
    smt.add_argument(
        "--watch", action="store_true",
        help="follow the job's SSE settle stream to completion "
        "(reconnects with Last-Event-ID across failures)",
    )
    smt.add_argument(
        "--output", metavar="PATH",
        help="with --watch: save the finished job's results JSONL here",
    )
    _add_client_flags(smt)

    wch = sub.add_parser(
        "watch",
        help="follow an existing job's SSE settle stream to completion",
    )
    wch.add_argument("job_id", help="job id returned by mosaic submit")
    wch.add_argument(
        "--output", metavar="PATH",
        help="save the finished job's results JSONL here",
    )
    _add_client_flags(wch)

    _add_lint_parser(sub)
    return parser


def _add_lint_parser(sub: "argparse._SubParsersAction") -> None:
    lint = sub.add_parser(
        "lint",
        help="check Mosaic pipeline contracts (MOS001-MOS018)",
        description="AST-based invariant analysis: streaming discipline, "
        "exhaustive Violation handling, tolerance-based timestamp "
        "comparison, guarded divisions, named thresholds, plus "
        "whole-program dataflow rules (taint, fork safety, governor "
        "coverage, exception routing).  See docs/LINT.md.",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories (default: src)"
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not only errors",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", dest="fmt"
    )
    lint.add_argument(
        "--select", help="comma-separated rule ids to run (default: all)"
    )
    lint.add_argument("--ignore", help="comma-separated rule ids to skip")
    lint.add_argument("--baseline", help="baseline file of adopted findings")
    lint.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="adopt every current finding into PATH and exit 0",
    )
    lint.add_argument(
        "--sarif",
        metavar="PATH",
        help="additionally write a SARIF 2.1.0 report to PATH",
    )
    lint.add_argument(
        "--cache",
        metavar="PATH",
        help="content-hash findings cache: warm runs skip re-analysis "
        "of unchanged files (and of the whole project phase when "
        "nothing changed)",
    )
    lint.add_argument(
        "--explain",
        metavar="RULE_ID",
        help="print one rule's full contract, then run only that rule "
        "over the paths with source→sink path traces",
    )
    lint.add_argument(
        "--no-hints", action="store_true", help="omit fix hints from text output"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )


def _add_client_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=8377)
    sub.add_argument(
        "--data-dir", metavar="PATH",
        help="discover the endpoint from <data-dir>/server.json instead "
        "of --host/--port (what mosaic serve published)",
    )
    sub.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="overall deadline for the job to reach a terminal state",
    )
    sub.add_argument(
        "--retries", type=int, default=5, metavar="N",
        help="attempts per request (deterministic exponential backoff)",
    )
    sub.add_argument(
        "--quiet", action="store_true",
        help="suppress per-settle event lines",
    )


def _add_resilience_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--journal", metavar="PATH",
        help="checkpoint per-trace outcomes to an append-only JSONL "
        "journal (enables later --resume; see docs/ROBUSTNESS.md)",
    )
    sub.add_argument(
        "--resume", metavar="PATH",
        help="resume a killed run from its journal: settled traces are "
        "skipped, new outcomes are appended to the same journal",
    )
    sub.add_argument(
        "--task-timeout", type=float, metavar="SECONDS",
        help="per-trace categorization deadline; hung traces are "
        "quarantined as TIMEOUT and their worker recycled "
        "(default: no deadline)",
    )
    sub.add_argument(
        "--budget-max-ops", type=int, metavar="N",
        help="per-trace operation budget: traces above it walk the "
        "degradation ladder (subsample -> skip periodicity -> flag) "
        "instead of running at full fidelity (default: unlimited)",
    )
    sub.add_argument(
        "--budget-max-bytes", type=int, metavar="BYTES",
        help="per-trace estimated working-set budget driving the same "
        "ladder (default: unlimited)",
    )
    sub.add_argument(
        "--stage-deadline", type=float, metavar="SECONDS",
        help="soft per-stage deadline: an overrunning trace degrades to "
        "temporality+metadata only instead of being dropped "
        "(default: none)",
    )


def _dir_source(path: str) -> DirectorySource:
    """A lazy source over a trace directory; empty or unlistable
    directories abort with a message instead of a traceback."""
    source = DirectorySource(path)
    try:
        n = source.count()
    except TraceFormatError as exc:
        raise SystemExit(str(exc)) from exc
    if n == 0:
        raise SystemExit(f"no .mosd/.json/.darshan.txt traces found in {path!r}")
    return source


def _effective_config(args: argparse.Namespace) -> MosaicConfig:
    """Apply the --budget-*/--stage-deadline flags to the paper config."""
    kwargs: dict[str, Any] = {}
    if getattr(args, "budget_max_ops", None):
        kwargs["max_ops"] = args.budget_max_ops
    if getattr(args, "budget_max_bytes", None):
        kwargs["max_bytes"] = args.budget_max_bytes
    if getattr(args, "stage_deadline", None):
        kwargs["stage_deadline_s"] = args.stage_deadline
    if not kwargs:
        return DEFAULT_CONFIG
    try:
        budget = ResourceBudget(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"bad resource budget: {exc}") from exc
    return DEFAULT_CONFIG.with_overrides(budget=budget)


def _print_stage_metrics(result) -> None:
    """Per-stage funnel of one streaming run (scan → preprocess →
    categorize), for operators watching corpus-scale jobs."""
    m = result.metrics
    t = result.timings
    mb = m.get("scan_bytes_read", 0) / 1e6
    print(
        f"  scan:       {t.get('scan_s', 0.0):8.2f}s  "
        f"{m.get('traces_scanned', 0)} traces scanned, {mb:.1f} MB read"
    )
    print(
        f"  preprocess: {m.get('n_corrupted', 0)} corrupted "
        f"({m.get('n_unreadable', 0)} unreadable), "
        f"{m.get('n_repaired', 0)} repaired, "
        f"{m.get('n_selected', 0)} apps selected"
    )
    print(
        f"  categorize: {t.get('categorize_s', 0.0):8.2f}s  "
        f"{result.n_categorized} categorized, "
        f"{m.get('n_failures', 0)} failures, "
        f"peak {m.get('peak_inflight_traces', 0)} traces in flight"
    )
    resilience = (
        "n_retries", "n_timeouts", "n_crash_events",
        "n_pool_rebuilds", "n_poisoned", "n_resumed", "n_quarantined",
    )
    if any(m.get(k, 0) for k in resilience):
        print(
            f"  resilience: "
            f"{m.get('n_retries', 0)} retries, "
            f"{m.get('n_timeouts', 0)} timeouts, "
            f"{m.get('n_crash_events', 0)} crash events, "
            f"{m.get('n_pool_rebuilds', 0)} pool rebuilds, "
            f"{m.get('n_poisoned', 0)} poisoned, "
            f"{m.get('n_resumed', 0)} resumed, "
            f"{m.get('n_quarantined', 0)} quarantined"
        )
    if m.get("n_degraded", 0):
        print(
            f"  degraded:   {m.get('n_degraded', 0)} over budget "
            f"({m.get('n_degraded_coarse', 0)} coarse, "
            f"{m.get('n_degraded_minimal', 0)} minimal, "
            f"{m.get('n_degraded_flagged', 0)} flagged)"
        )


def _cmd_generate(args: argparse.Namespace) -> int:
    from ..synth import FleetConfig, generate_fleet

    os.makedirs(args.out, exist_ok=True)
    fleet = generate_fleet(
        FleetConfig(n_apps=args.n_apps, mean_runs=args.mean_runs, seed=args.seed)
    )
    for trace in fleet.traces:
        base = os.path.join(args.out, f"job{trace.meta.job_id:08d}")
        if args.format == "binary":
            save_binary(trace, base + ".mosd")
        else:
            save_json(trace, base + ".json")
    manifest = {
        "n_apps": args.n_apps,
        "mean_runs": args.mean_runs,
        "seed": args.seed,
        "n_traces": fleet.n_input,
        "n_valid": fleet.n_valid,
        "n_corrupted": fleet.n_corrupted,
        "cohorts": {k: list(v) for k, v in fleet.manifest.items()},
        "truth": {str(j): t.to_dict() for j, t in fleet.truth.items()},
    }
    atomic_write_text(
        os.path.join(args.out, "manifest.json"), json.dumps(manifest)
    )
    print(
        f"wrote {fleet.n_input} traces ({fleet.n_valid} valid, "
        f"{fleet.n_corrupted} corrupted) to {args.out}"
    )
    return 0


def _parallel(
    workers: int, task_timeout: float | None = None, **retry: Any
) -> ParallelConfig:
    """Pool config for --workers; ``--task-timeout`` and any other
    ``retry`` knobs override the :class:`RetryPolicy` defaults."""
    if task_timeout is not None:
        retry["task_timeout_s"] = task_timeout
    return ParallelConfig(
        max_workers=workers if workers >= 0 else None,
        retry=RetryPolicy(**retry),
    )


def _journal_args(args: argparse.Namespace) -> tuple[str | None, bool]:
    """Resolve --journal/--resume into (journal_path, resume)."""
    journal: str | None = getattr(args, "journal", None)
    resume: str | None = getattr(args, "resume", None)
    if resume and journal and os.path.abspath(resume) != os.path.abspath(journal):
        raise SystemExit(
            "--journal and --resume must name the same file "
            "(--resume alone both reads and extends the journal)"
        )
    if resume:
        if not os.path.exists(resume):
            raise SystemExit(f"no journal to resume at {resume!r}")
        return resume, True
    return journal, False


def _chaos_wrap(
    fn: Callable[[Any], Any], *, seed: int, state_dir: str
) -> Callable[[Any], Any]:
    """Default CLI chaos schedule: mostly-healthy corpus with a few
    crashes, one-in-fifty hangs, and recoverable transient errors."""
    from ..testing import ChaosInjector

    return ChaosInjector(
        inner=fn,
        seed=seed,
        crash_rate=0.02,
        hang_rate=0.02,
        flaky_rate=0.05,
        state_dir=state_dir,
    )


def _chaos_context(args: argparse.Namespace) -> PipelineContext | None:
    """Build a chaos-wrapped pipeline context, or None without --chaos."""
    if getattr(args, "chaos", None) is None:
        return None
    parallel = _parallel(
        args.workers,
        # hangs must be detectable, so chaos implies a deadline
        args.task_timeout if args.task_timeout is not None else 30.0,
        # the production budget (3) assumes crashes are anomalies;
        # chaos injects them on purpose, so a self-test needs headroom
        max_pool_rebuilds=100,
    )
    if parallel.resolved_workers() <= 1:
        raise SystemExit(
            "--chaos requires a process pool (--workers >= 2): injected "
            "crashes would kill the CLI itself in serial mode"
        )
    return PipelineContext(
        config=_effective_config(args),
        parallel=parallel,
        repair=getattr(args, "repair", False),
        wrap_worker=functools.partial(
            _chaos_wrap,
            seed=args.chaos,
            state_dir=tempfile.mkdtemp(prefix="mosaic-chaos-"),
        ),
    )


def _print_journal_paths(result: PipelineResult, journal: str | None) -> None:
    if journal is None:
        return
    m = result.metrics
    print(f"  journal:    {journal}")
    if m.get("n_quarantined", 0):
        print(f"  quarantine: {journal}.quarantine.json")


def _cmd_compile(args: argparse.Namespace) -> int:
    from ..columnar import StoreOverflowError, compile_corpus

    source = _dir_source(args.traces)
    try:
        report = compile_corpus(source, args.out, repair=args.repair)
    except (TraceFormatError, StoreOverflowError) as exc:
        raise SystemExit(str(exc)) from exc
    print(
        f"compiled {report.n_traces} traces "
        f"({report.n_unreadable} unreadable payloads counted, "
        f"{report.n_records} records, {report.n_ops} ops) into "
        f"{report.path} ({report.n_bytes / 1e6:.1f} MB) "
        f"in {report.elapsed_s:.1f}s"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from ..columnar import salvage_store, verify_store

    report = verify_store(args.store)
    payload: dict[str, Any] = report.to_dict()
    if report.clean:
        print(
            f"{args.store}: clean (version {report.version}, "
            f"{report.n_traces} traces, per-trace CRCs "
            f"{'verified' if report.version >= 2 else 'absent: v1 store'})"
        )
    else:
        print(f"{args.store}: {len(report.findings)} integrity finding(s)")
        for f in report.findings:
            locus = (
                f" [row {f.row}]"
                if f.row >= 0
                else (f" [{f.section}]" if f.section else "")
            )
            print(f"  {f.kind}{locus}: {f.detail}")
        if args.repair and not report.fatal:
            out = args.out or (args.store + ".repaired.mosc")
            try:
                salvage = salvage_store(args.store, out)
            except TraceFormatError as exc:
                raise SystemExit(f"repair failed: {exc}") from exc
            payload = salvage.to_dict()
            print(
                f"salvaged {salvage.n_recovered}/{salvage.n_rows} traces "
                f"into {out} ({salvage.n_lost} lost: rows "
                f"{list(salvage.lost_rows)}; job ids "
                f"{list(salvage.lost_job_ids)} where recoverable)"
            )
        elif args.repair:
            print("repair impossible: header/geometry damage is fatal")
    if args.json_out:
        atomic_write_text(args.json_out, json.dumps(payload, indent=2) + "\n")
    return 0 if report.clean else 1


def _run_pipeline(
    args: argparse.Namespace, context: PipelineContext | None = None
) -> PipelineResult:
    """Dispatch on --store vs --traces: batched fast path or streaming.

    A ``context`` (``--chaos``) already carries the run's config,
    parallelism and repair flag."""
    journal, resume = _journal_args(args)
    common: dict[str, Any] = dict(
        journal_path=journal, resume=resume, context=context
    )
    if context is None:
        common.update(
            config=_effective_config(args),
            parallel=_parallel(args.workers, args.task_timeout),
            repair=getattr(args, "repair", False),
        )
    if getattr(args, "store", None):
        if getattr(args, "traces", None):
            raise SystemExit("--store and --traces are mutually exclusive")
        from ..core import run_pipeline_store

        try:
            return run_pipeline_store(args.store, **common)
        except (TraceFormatError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
    source = (
        _dir_source(args.traces)
        if getattr(args, "traces", None)
        else _corpus_source(args)
    )
    return run_pipeline_stream(source, **common)


def _cmd_categorize(args: argparse.Namespace) -> int:
    if not args.traces and not args.store:
        raise SystemExit("one of --traces or --store is required")
    journal, _resume = _journal_args(args)
    result = _run_pipeline(args)
    n = save_results_jsonl(result.results, args.out)
    weights_path = args.out + ".weights.json"
    atomic_write_text(
        weights_path,
        json.dumps(
            {str(r.job_id): w for r, w in zip(result.results, result.run_weights())}
        ),
    )
    pre = result.preprocess
    print(
        f"categorized {n} unique applications out of {pre.n_input} traces "
        f"({pre.corrupted_fraction:.0%} corrupted, "
        f"{pre.unique_fraction:.0%} unique) in {result.timings['total_s']:.1f}s"
    )
    _print_stage_metrics(result)
    _print_journal_paths(result, journal)
    print(f"results: {args.out}\nall-runs weights: {weights_path}")
    return 0


def _corpus_source(args: argparse.Namespace) -> TraceSource:
    """Trace directory when given, lazy synthetic corpus otherwise."""
    if args.traces:
        return _dir_source(args.traces)
    from ..synth import FleetConfig

    print(f"synthesizing corpus (n_apps={args.n_apps}, seed={args.seed})...")
    return SyntheticSource(FleetConfig(n_apps=args.n_apps, seed=args.seed))


def _cmd_report(args: argparse.Namespace) -> int:
    from ..analysis import build_report

    journal, _resume = _journal_args(args)
    context = _chaos_context(args)
    if context is not None:
        print(f"chaos mode: seed={args.chaos}, injecting faults...")
    result = _run_pipeline(args, context=context)
    print()
    print(build_report(result).render())
    _print_stage_metrics(result)
    _print_journal_paths(result, journal)
    return 0


def _cmd_anatomy(args: argparse.Namespace) -> int:
    from ..synth import cohort_by_name, generate_run
    from ..viz import render_trace_anatomy

    rng = np.random.default_rng(args.seed)
    spec = cohort_by_name(args.cohort).build(1, rng)
    trace = generate_run(spec, 1, rng, force_nominal=True)
    print(render_trace_anatomy(trace, width=args.width))
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from ..analysis import estimate_accuracy
    from ..synth import GroundTruth

    manifest_path = os.path.join(args.traces, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read ground-truth manifest: {exc}") from exc
    truth = {
        int(job_id): GroundTruth.from_dict(d)
        for job_id, d in manifest.get("truth", {}).items()
    }
    if not truth:
        raise SystemExit("manifest carries no ground truth")

    result = run_pipeline_stream(
        _dir_source(args.traces), DEFAULT_CONFIG, _parallel(args.workers)
    )
    rep = estimate_accuracy(
        result.results, truth, sample_size=args.sample_size, seed=args.seed
    )
    print(
        f"accuracy over {rep.n_sampled} sampled traces: {rep.accuracy:.1%} "
        f"[{rep.ci_low:.1%}, {rep.ci_high:.1%}] "
        f"({rep.n_incorrect} wrong; paper: 92%, 42/512)"
    )
    if rep.errors_by_axis:
        print("errors by axis: "
              + ", ".join(f"{k}={v}" for k, v in rep.errors_by_axis.items()))
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    from ..discovery import discover_temporality

    source = _corpus_source(args)
    result = run_pipeline_stream(source, DEFAULT_CONFIG, _parallel(0))
    rep = discover_temporality(
        result.results, args.direction, k=args.k, seed=args.seed
    )
    print(
        f"discovered k={rep.k} {args.direction} clusters over "
        f"{rep.n_traces} significant traces "
        f"(purity {rep.overall_purity:.2f}, ARI vs rules {rep.ari:.2f})"
    )
    for c in rep.clusters:
        shares = ", ".join(f"{s:.2f}" for s in c.centroid_shares)
        print(
            f"  cluster {c.cluster_id}: {c.size:4d} traces -> "
            f"{c.majority_label.value} (purity {c.purity:.2f}) chunks [{shares}]"
        )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from ..fuzz import (
        FuzzCase,
        load_corpus,
        minimize_case,
        replay_corpus,
        run_fuzz,
        save_corpus,
    )

    if args.replay:
        if not os.path.isdir(args.replay):
            raise SystemExit(f"no corpus directory at {args.replay!r}")
        cases = list(load_corpus(args.replay))
        if not cases:
            raise SystemExit(f"corpus at {args.replay!r} holds no .bin cases")
        report = replay_corpus(
            cases, deadline_s=args.deadline, alloc_budget=args.alloc_budget
        )
        print(f"replayed {args.replay}: {report.summary()}")
    else:
        formats = [f.strip() for f in args.formats.split(",") if f.strip()]
        report = run_fuzz(
            formats,
            n_cases=args.cases,
            seed=args.seed,
            deadline_s=args.deadline,
            alloc_budget=args.alloc_budget,
            on_progress=lambda fmt, n: print(f"  ... {n} cases ({fmt})"),
        )
        print(report.summary())
    if report.findings and args.save_findings:
        reproducers = [
            FuzzCase(
                fmt=f.fmt,
                mutation=f"{f.kind}-{f.mutation}",
                seed=f.seed,
                # hangs/allocs are not safe to re-run under minimization
                data=minimize_case(f.fmt, f.data) if f.kind == "crash" else f.data,
            )
            for f in report.findings
        ]
        for path in save_corpus(reproducers, args.save_findings):
            print(f"  reproducer: {path}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service import MosaicServer
    from ..service.admission import AdmissionLimits

    limit_overrides: dict[str, Any] = {}
    if args.max_queue_depth:
        limit_overrides["max_queue_depth"] = args.max_queue_depth
    if args.max_inflight:
        limit_overrides["max_inflight_requests"] = args.max_inflight
    if args.drain_timeout:
        limit_overrides["drain_timeout_s"] = args.drain_timeout
    try:
        limits = AdmissionLimits(**limit_overrides)
    except ValueError as exc:
        raise SystemExit(f"bad admission limits: {exc}") from exc
    server = MosaicServer(
        args.data_dir,
        config=_effective_config(args),
        workers=args.workers,
        host=args.host,
        port=args.port,
        limits=limits,
        sse_keepalive_s=args.sse_keepalive or 15.0,
    )
    print(
        f"mosaic service: data-dir {args.data_dir}, "
        f"{args.workers or 'serial'} workers per job"
    )
    print(f"listening on {args.host}:{args.port or '<ephemeral>'} "
          f"(endpoint published in {os.path.join(args.data_dir, 'server.json')})")
    server.serve_forever()
    return 0


def _client_endpoint(args: argparse.Namespace) -> tuple[str, int]:
    """Resolve the service endpoint: server.json beats --host/--port."""
    if getattr(args, "data_dir", None):
        endpoint_path = os.path.join(args.data_dir, "server.json")
        try:
            with open(endpoint_path, "r", encoding="utf-8") as fh:
                endpoint = json.load(fh)
            return str(endpoint["host"]), int(endpoint["port"])
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(
                f"cannot discover endpoint from {endpoint_path!r}: {exc} "
                "(is mosaic serve running with that --data-dir?)"
            ) from exc
    return args.host, args.port


def _make_client(args: argparse.Namespace):
    from ..service.client import ClientRetryPolicy, MosaicClient

    host, port = _client_endpoint(args)
    return MosaicClient(
        host, port, retry=ClientRetryPolicy(max_attempts=args.retries)
    )


_JOB_STATUS_EXIT = {"done": 0, "failed": 1, "storage-failed": 3}


def _watch_to_exit(client, job_id: str, args: argparse.Namespace) -> int:
    """Follow one job to a terminal state; map its status to an exit
    code (matching the batch CLI: storage failures exit 3)."""
    from ..service.client import MosaicClientError

    def on_event(event: dict) -> None:
        if not args.quiet:
            print(f"  event: {json.dumps(event, separators=(',', ':'))}")

    try:
        job = client.watch(job_id, timeout_s=args.timeout, on_event=on_event)
    except MosaicClientError as exc:
        raise SystemExit(f"watch failed: {exc}") from exc
    status = job.get("status", "failed")
    print(f"{job_id}: {status}"
          + (f" ({job.get('error', '')})" if job.get("error") else ""))
    if status == "done" and getattr(args, "output", None):
        from ..io import atomic_write_bytes

        data = client.results(job_id)
        atomic_write_bytes(args.output, data)
        print(f"results -> {args.output} ({len(data)} bytes)")
    return _JOB_STATUS_EXIT.get(status, 1)


def _cmd_submit(args: argparse.Namespace) -> int:
    from ..service.client import MosaicClientError

    if bool(args.store) == bool(args.traces):
        raise SystemExit("exactly one of --store or --traces is required")
    client = _make_client(args)
    try:
        submitted = client.submit(
            store=args.store, traces=args.traces, repair=args.repair
        )
    except MosaicClientError as exc:
        raise SystemExit(f"submission failed: {exc}") from exc
    job_id = submitted["job_id"]
    dedup = " (deduplicated: already submitted)" if submitted.get(
        "deduplicated"
    ) else ""
    print(f"submitted {job_id}: {submitted.get('status', 'queued')}{dedup}")
    if not args.watch:
        return 0
    return _watch_to_exit(client, job_id, args)


def _cmd_watch(args: argparse.Namespace) -> int:
    return _watch_to_exit(_make_client(args), args.job_id, args)


def _cmd_lint(args: argparse.Namespace) -> int:
    from ..lint.cli import cmd_lint

    return cmd_lint(args)


_COMMANDS = {
    "compile": _cmd_compile,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
    "categorize": _cmd_categorize,
    "report": _cmd_report,
    "anatomy": _cmd_anatomy,
    "accuracy": _cmd_accuracy,
    "discover": _cmd_discover,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "watch": _cmd_watch,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PoolRebuildLimit as exc:
        raise SystemExit(
            f"aborted: {exc}\n(raise --task-timeout / max_pool_rebuilds, or "
            "quarantine the offending traces and --resume from the journal)"
        ) from exc
    except StorageError as exc:
        # Exit 3: a durable artifact could not be persisted.  The write
        # was atomic, so whatever was at the target path is still intact.
        print(f"storage error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
