"""The flow-sensitive rules MOS014–MOS017.

Each rule here is a :class:`~repro.lint.rules.ProjectRule`: it runs
once over the whole :class:`~repro.lint.project.ProjectIndex` instead
of once per module, and its findings carry a full source→sink
:class:`~repro.lint.findings.Step` trace rendered by the text
reporter, ``repro lint --explain``, and SARIF ``codeFlows``.  The four
rules machine-check the two incident classes this repo has actually
shipped fixes for (the MOSD allocation bomb, the pre-store fork/mmap
inheritance) plus the two contracts that silently rot as layers are
added (governor coverage, corruption-error routing).
"""

from __future__ import annotations

import ast
import re

from .context import collect_scope_bindings, dotted_name
from .dataflow import TaintEngine
from .findings import Severity, Step
from .project import CallSite, FunctionInfo, ModuleInfo, ProjectIndex
from .rules import ProjectRule, register

__all__ = [
    "TaintedAllocationRule",
    "ForkSafetyRule",
    "GovernorCoverageRule",
    "ExceptionBoundaryRule",
]


def _terminal(dotted: str | None) -> str:
    return dotted.rsplit(".", 1)[-1] if dotted else ""


def _short(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


# ======================================================================
@register
class TaintedAllocationRule(ProjectRule):
    """MOS014: untrusted decoded values must be validated before they
    size an allocation.

    A length field produced by ``struct.unpack``/``int.from_bytes``/
    ``json.loads`` is attacker-controlled until it passes a
    ``DecodeLimits`` validator (``check_declared_size``, the
    ``_read_checked`` chokepoint, any ``check_*``/``validate*`` call)
    or a bailing guard (``if n > limits.max_records: raise``).  Letting
    it reach ``range()``, ``np.empty/zeros/ones/full``, ``bytearray``,
    or a sequence multiplication first is the MOSD allocation bomb: a
    40-byte payload declaring four billion records.  The analysis is
    interprocedural — a size decoded in ``darshan/`` and allocated in
    ``columnar/`` is still one flow — and each finding carries the full
    source→sink path.
    """

    id = "MOS014"
    name = "tainted-allocation"
    description = (
        "value decoded from trace bytes reaches an allocation sink "
        "without DecodeLimits validation"
    )
    severity = Severity.ERROR
    fix_hint = (
        "validate the decoded value against DecodeLimits "
        "(check_declared_size / _read_checked / an explicit "
        "`if n > cap: raise` guard) before sizing any allocation"
    )

    def check(self, index: ProjectIndex) -> None:
        engine = TaintEngine(index)
        engine.solve()
        seen: set[tuple[str, int, int, str]] = set()
        for taint in engine.findings():
            fn = taint.function
            key = (fn.path, taint.node.lineno, taint.node.col_offset, taint.sink)
            if key in seen:
                continue
            seen.add(key)
            origin = taint.steps[0] if taint.steps else None
            where = (
                f" (decoded at {origin.location()})" if origin is not None else ""
            )
            self.report(
                fn.path,
                taint.node,
                f"in {_short(fn.qualname)}(): untrusted decoded value "
                f"reaches {taint.sink} unvalidated{where}",
                trace=taint.steps,
            )


# ======================================================================
#: Calls that produce an OS-level handle a forked worker must not inherit.
_HANDLE_QUALIFIED = frozenset(
    {
        "open",
        "io.open",
        "gzip.open",
        "bz2.open",
        "lzma.open",
        "mmap.mmap",
        "numpy.memmap",
    }
)
_HANDLE_TERMINALS = frozenset({"attach", "CorpusStore", "memmap"})

#: Pool entry points by name, and executor/pool method calls.
_POOL_FUNCTIONS = frozenset({"resilient_imap"})
_POOL_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply_async"}
)
_POOL_RECEIVER_RE = re.compile(r"(^|_)(pool|executor)s?$", re.IGNORECASE)


@register
class ForkSafetyRule(ProjectRule):
    """MOS015: handles opened in the parent must not be captured by
    pool worker callables.

    An mmap, ``np.memmap``, open file, or attached
    :class:`~repro.columnar.store.CorpusStore` created before the pool
    spawns is inherited *by reference* through fork: the child sees the
    parent's mapping and file-descriptor offsets, and page-cache
    aliasing turns into silent corruption under concurrent access —
    the bug class ``columnar.attach()``'s per-process cache exists to
    prevent.  Workers must receive *descriptors* (paths, row ranges)
    and open their own handles; this rule flags any worker callable —
    lambda, nested ``def``, or ``functools.partial`` binding — that
    closes over a parent-created handle.
    """

    id = "MOS015"
    name = "fork-unsafe-handle"
    description = (
        "mmap/file handle created before pool spawn is captured by a "
        "worker callable"
    )
    severity = Severity.ERROR
    fix_hint = (
        "ship descriptors (path, rows) to workers and open the handle "
        "inside the worker (the columnar attach() pattern)"
    )

    def check(self, index: ProjectIndex) -> None:
        module_handles: dict[str, dict[str, Step]] = {}
        for mi in index.by_path.values():
            module_handles[mi.path] = self._module_level_handles(mi)
        for fn in index.functions.values():
            self._check_function(
                index, fn, dict(module_handles.get(fn.path, {}))
            )

    # ------------------------------------------------------------------
    def _module_level_handles(self, mi: ModuleInfo) -> dict[str, Step]:
        handles: dict[str, Step] = {}
        for stmt in mi.tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Call
            ):
                step = self._handle_step(mi, stmt.value)
                if step is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        handles[target.id] = step
        return handles

    def _handle_step(self, mi: ModuleInfo, call: ast.Call) -> Step | None:
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        qualified = mi.ctx.qualify_node(call.func) or dotted
        terminal = _terminal(dotted)
        if qualified in _HANDLE_QUALIFIED or terminal in _HANDLE_TERMINALS:
            return Step(
                path=mi.path,
                line=call.lineno,
                col=call.col_offset + 1,
                note=f"handle created in the parent process by {terminal}()",
            )
        return None

    def _check_function(
        self, index: ProjectIndex, fn: FunctionInfo, env: dict[str, Step]
    ) -> None:
        mi = index.by_path[fn.path]
        partials: dict[str, ast.Call] = {}
        nested: dict[str, ast.AST] = {}
        pool_calls: list[tuple[ast.Call, ast.expr]] = []

        for node in _own_nodes(fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested[node.name] = node
                continue
            target: ast.expr | None = None
            bound_value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, bound_value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, bound_value = node.target, node.value
            if isinstance(target, ast.Name) and bound_value is not None:
                if isinstance(bound_value, ast.Call):
                    step = self._handle_step(mi, bound_value)
                    if step is not None:
                        env[target.id] = step
                        continue
                    if _terminal(dotted_name(bound_value.func)) == "partial":
                        partials[target.id] = bound_value
                        continue
                if isinstance(bound_value, ast.Name) and bound_value.id in env:
                    env[target.id] = env[bound_value.id]
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        step = self._handle_step(mi, item.context_expr)
                        if step is not None:
                            env[item.optional_vars.id] = step
            if isinstance(node, ast.Call):
                worker = self._pool_worker_expr(node)
                if worker is not None:
                    pool_calls.append((node, worker))

        for call, worker in pool_calls:
            captured = self._captured_handles(worker, env, partials, nested)
            for name, step in captured:
                ship = Step(
                    path=fn.path,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    note=(
                        f"handle {name!r} captured by the worker callable "
                        "shipped to the pool here"
                    ),
                )
                self.report(
                    fn.path,
                    call,
                    f"in {_short(fn.qualname)}(): parent-process handle "
                    f"{name!r} is captured by a pool worker callable",
                    trace=(step, ship),
                )

    def _pool_worker_expr(self, call: ast.Call) -> ast.expr | None:
        func = call.func
        dotted = dotted_name(func)
        if dotted and _terminal(dotted) in _POOL_FUNCTIONS:
            if call.args:
                return call.args[0]
            for kw in call.keywords:
                if kw.arg == "fn":
                    return kw.value
            return None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_METHODS
            and isinstance(func.value, ast.Name)
            and _POOL_RECEIVER_RE.search(func.value.id)
        ):
            return call.args[0] if call.args else None
        return None

    def _captured_handles(
        self,
        worker: ast.expr,
        env: dict[str, Step],
        partials: dict[str, ast.Call],
        nested: dict[str, ast.AST],
    ) -> list[tuple[str, Step]]:
        if isinstance(worker, ast.Name):
            if worker.id in partials:
                return self._partial_captures(
                    partials[worker.id], env, partials, nested
                )
            if worker.id in nested:
                return self._free_handle_names(nested[worker.id], env)
            return []
        if isinstance(worker, ast.Call) and _terminal(
            dotted_name(worker.func)
        ) == "partial":
            return self._partial_captures(worker, env, partials, nested)
        if isinstance(worker, ast.Lambda):
            return self._free_handle_names(worker, env)
        return []

    def _partial_captures(
        self,
        call: ast.Call,
        env: dict[str, Step],
        partials: dict[str, ast.Call],
        nested: dict[str, ast.AST],
    ) -> list[tuple[str, Step]]:
        captured: list[tuple[str, Step]] = []
        bound = call.args[1:] + [kw.value for kw in call.keywords]
        for expr in bound:
            for name_node in ast.walk(expr):
                if isinstance(name_node, ast.Name) and name_node.id in env:
                    captured.append((name_node.id, env[name_node.id]))
        if call.args:
            captured.extend(
                self._captured_handles(call.args[0], env, partials, nested)
            )
        return captured

    def _free_handle_names(
        self, node: ast.AST, env: dict[str, Step]
    ) -> list[tuple[str, Step]]:
        bound = set(collect_scope_bindings(node))
        out: list[tuple[str, Step]] = []
        for name_node in ast.walk(node):
            if (
                isinstance(name_node, ast.Name)
                and isinstance(name_node.ctx, ast.Load)
                and name_node.id not in bound
                and name_node.id in env
            ):
                out.append((name_node.id, env[name_node.id]))
        return out


# ======================================================================
_BUDGET_WORDS = frozenset(
    {
        "budget",
        "budgets",
        "governor",
        "governors",
        "Governor",
        "ResourceBudget",
        "check_deadline",
        "allows_axes",
        "allows_periodicity",
        "ops_cap",
        "subsample_ops",
    }
)

#: Ingest/planning helpers that run *before* governance applies: pass ①
#: scanning and payload loading are bounded by DecodeLimits, not by the
#: per-trace ResourceBudget.
_GOVERNOR_EXEMPT_RE = re.compile(r"^(scan_|load_|plan_)")

_CONSULT_DEPTH = 4


@register
class GovernorCoverageRule(ProjectRule):
    """MOS016: every pipeline stage reachable from ``run_pipeline*``
    must consult the resource governor.

    The degradation ladder only works if every compute stage checks in:
    a stage that never looks at :class:`ResourceBudget`/
    :class:`Governor` (directly or through its callees) runs unbounded
    no matter what ``--budget-max-ops`` says.  For every call inside a
    ``with ctx.stage(...)`` block of a ``run_pipeline*`` entry or of
    the private ``_run_pipeline*`` driver they share — and for the
    worker callable handed to ``resilient_imap`` there — the
    called function's transitive call graph (depth ≤ 4) must reference
    the governor lexicon.  Ingest helpers (``scan_*``/``load_*``/
    ``plan_*``, which run before governance and are bounded by
    ``DecodeLimits``) are exempt; anything else must either consult the
    budget or carry an explicit ``# mosaic: disable=MOS016`` exemption.
    """

    id = "MOS016"
    name = "ungoverned-stage"
    description = (
        "pipeline stage reachable from run_pipeline* never consults "
        "ResourceBudget/Governor"
    )
    severity = Severity.ERROR
    fix_hint = (
        "thread the Governor/ResourceBudget through the stage (or mark "
        "an intentionally ungoverned stage with "
        "`# mosaic: disable=MOS016` and a justification)"
    )

    def check(self, index: ProjectIndex) -> None:
        for fn in index.functions.values():
            if not _short(fn.qualname).lstrip("_").startswith("run_pipeline"):
                continue
            assigns = _own_assign_map(fn.node)
            for cs in fn.calls:
                if not cs.in_stage_block:
                    continue
                self._check_stage_call(index, fn, cs, assigns)

    def _check_stage_call(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        cs: CallSite,
        assigns: dict[str, ast.expr],
    ) -> None:
        terminal = _terminal(cs.raw)
        if terminal in _POOL_FUNCTIONS:
            worker = (
                cs.node.args[0]
                if cs.node.args
                else next(
                    (kw.value for kw in cs.node.keywords if kw.arg == "fn"),
                    None,
                )
            )
            if worker is None:
                return
            target = _resolve_callable(index, fn, worker, assigns)
            if target is None:
                return
            if not self._consults(index, target):
                self._report_stage(fn, cs, target, via=terminal)
            return
        if cs.resolved is None:
            return  # opaque call: journal/context-manager plumbing
        if _GOVERNOR_EXEMPT_RE.match(terminal):
            return
        if not self._consults(index, cs.resolved):
            self._report_stage(fn, cs, cs.resolved)

    def _report_stage(
        self,
        fn: FunctionInfo,
        cs: CallSite,
        target: str,
        via: str | None = None,
    ) -> None:
        how = f" (worker of {via}())" if via else ""
        entry = Step(
            path=fn.path,
            line=fn.node.lineno,
            col=fn.node.col_offset + 1,
            note=f"pipeline entry {_short(fn.qualname)}()",
        )
        site = Step(
            path=fn.path,
            line=cs.node.lineno,
            col=cs.node.col_offset + 1,
            note=(
                f"stage calls {_short(target)}(){how}, which never "
                "references ResourceBudget/Governor"
            ),
        )
        self.report(
            fn.path,
            cs.node,
            f"stage call {_short(target)}(){how} in "
            f"{_short(fn.qualname)}() never consults "
            "ResourceBudget/Governor",
            trace=(entry, site),
        )

    def _consults(self, index: ProjectIndex, qualname: str) -> bool:
        seen: set[str] = set()
        frontier = [qualname]
        for _ in range(_CONSULT_DEPTH + 1):
            next_frontier: list[str] = []
            for qn in frontier:
                if qn in seen:
                    continue
                seen.add(qn)
                fn = index.functions.get(qn)
                if fn is None:
                    continue
                if fn.ref_parts & _BUDGET_WORDS:
                    return True
                next_frontier.extend(
                    cs.resolved
                    for cs in fn.calls
                    if cs.resolved and cs.resolved not in seen
                )
            if not next_frontier:
                return False
            frontier = next_frontier
        return False


# ======================================================================
#: Handler names that stop a ``TraceFormatError`` (its bases included).
_TFE_CATCHERS = frozenset(
    {"TraceFormatError", "DarshanError", "Exception", "BaseException"}
)

#: Layers whose *contract* is to raise/propagate TraceFormatError …
_READER_PREFIXES = ("repro.darshan.", "repro.columnar.", "repro.fuzz.")
#: … and the dispatch-boundary modules trusted to route it into the
#: Violation.UNREADABLE funnel (MOS009's scan-path set).
_BOUNDARY_MODULES = frozenset(
    {
        "repro.core.preprocess",
        "repro.core.pipeline",
        "repro.core.stream",
        "repro.darshan.source",
        "repro.cli.main",
        "repro.fuzz.harness",
        "repro.fuzz.corpus",
    }
)

_PROPAGATION_ROUNDS = 20


@register
class ExceptionBoundaryRule(ProjectRule):
    """MOS017: ``TraceFormatError`` must be handled at the dispatch
    boundary, wherever in a reader's call graph it originates.

    MOS009 checks ``except`` clauses it can *see*; this rule checks the
    calls that have none.  A module outside the reader layer
    (``repro.darshan``/``repro.columnar``/``repro.fuzz``) and outside
    the boundary set (``core.preprocess``/``core.pipeline``/
    ``core.stream``/``darshan.source``/``cli.main``) that calls a
    function which may raise ``TraceFormatError`` — directly or through
    any depth of unguarded calls — lets corpus corruption crash a batch
    run instead of feeding the ``Violation.UNREADABLE`` funnel.  The
    finding's trace walks from the original ``raise`` up through every
    unguarded hop to the flagged call site.
    """

    id = "MOS017"
    name = "escaping-trace-error"
    description = (
        "TraceFormatError can escape unhandled outside the reader layer "
        "and the dispatch boundary"
    )
    severity = Severity.ERROR
    fix_hint = (
        "wrap the call in try/except TraceFormatError and route the "
        "failure to the funnel (or re-raise as a typed error the "
        "boundary handles)"
    )

    def check(self, index: ProjectIndex) -> None:
        may_raise = self._propagate(index)
        for fn in index.functions.values():
            if not fn.module.startswith("repro."):
                checked = True  # standalone modules (fixtures) are checked
            else:
                checked = (
                    not fn.module.startswith(_READER_PREFIXES)
                    and fn.module not in _BOUNDARY_MODULES
                )
            if not checked:
                continue
            for cs in fn.calls:
                if cs.resolved not in may_raise:
                    continue
                if cs.guarded_by & _TFE_CATCHERS:
                    continue
                origin = may_raise[cs.resolved]
                site = Step(
                    path=fn.path,
                    line=cs.node.lineno,
                    col=cs.node.col_offset + 1,
                    note=(
                        f"unguarded call in {_short(fn.qualname)}() — the "
                        "error escapes past the dispatch boundary"
                    ),
                )
                self.report(
                    fn.path,
                    cs.node,
                    f"TraceFormatError from {_short(cs.resolved)}() can "
                    f"escape {_short(fn.qualname)}() unhandled",
                    trace=origin + (site,),
                )

    def _propagate(self, index: ProjectIndex) -> dict[str, tuple[Step, ...]]:
        may_raise: dict[str, tuple[Step, ...]] = {}
        for fn in index.functions.values():
            if "TraceFormatError" in fn.raises:
                may_raise[fn.qualname] = (
                    Step(
                        path=fn.path,
                        line=fn.node.lineno,
                        col=fn.node.col_offset + 1,
                        note=f"{_short(fn.qualname)}() raises TraceFormatError",
                    ),
                )
        for _ in range(_PROPAGATION_ROUNDS):
            changed = False
            for fn in index.functions.values():
                if fn.qualname in may_raise:
                    continue
                for cs in fn.calls:
                    if cs.resolved not in may_raise:
                        continue
                    if cs.guarded_by & _TFE_CATCHERS:
                        continue
                    may_raise[fn.qualname] = may_raise[cs.resolved] + (
                        Step(
                            path=fn.path,
                            line=cs.node.lineno,
                            col=cs.node.col_offset + 1,
                            note=(
                                "propagates through unguarded call in "
                                f"{_short(fn.qualname)}()"
                            ),
                        ),
                    )
                    changed = True
                    break
            if not changed:
                break
        return may_raise


# ======================================================================
def _own_nodes(fn_node: ast.AST):
    """Every node lexically in ``fn_node``'s own body, surfacing nested
    defs/lambdas themselves but not descending into them."""

    def rec(node: ast.AST):
        for child in ast.iter_child_nodes(node):
            yield child
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            yield from rec(child)

    yield from rec(fn_node)


def _own_assign_map(fn_node: ast.AST) -> dict[str, list[ast.expr]]:
    """name → every expression assigned to it in the function's own body.

    All assignments are kept (not just the last): the pipeline's
    ``fn = functools.partial(...)`` followed by ``fn =
    ctx.wrap_worker(fn)`` must still resolve through the partial.
    """
    assigns: dict[str, list[ast.expr]] = {}
    for node in _own_nodes(fn_node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigns.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                assigns.setdefault(node.target.id, []).append(node.value)
    return assigns


def _resolve_callable(
    index: ProjectIndex,
    fn: FunctionInfo,
    expr: ast.expr,
    assigns: dict[str, list[ast.expr]],
    _depth: int = 0,
    _seen: frozenset[str] = frozenset(),
) -> str | None:
    """Project function a worker-callable expression lands on.

    Follows ``functools.partial`` to its bound function, local
    assignments to their values, and single-argument wrapper calls
    (``fn = ctx.wrap_worker(fn)``) to the wrapped callable.
    """
    if _depth > 4:
        return None
    if isinstance(expr, ast.Call):
        if _terminal(dotted_name(expr.func)) == "partial":
            if expr.args:
                return _resolve_callable(
                    index, fn, expr.args[0], assigns, _depth + 1, _seen
                )
            return None
        # Wrapper call: whatever wrap_worker(fn) adds, the stage work
        # is still done by the wrapped callable.
        if len(expr.args) == 1:
            return _resolve_callable(
                index, fn, expr.args[0], assigns, _depth + 1, _seen
            )
        return None
    if isinstance(expr, ast.Name) and expr.id in assigns:
        if expr.id not in _seen:
            seen = _seen | {expr.id}
            for inner in assigns[expr.id]:
                resolved = _resolve_callable(
                    index, fn, inner, assigns, _depth + 1, seen
                )
                if resolved is not None:
                    return resolved
    _, resolved = index.resolve_expr(fn, expr)
    return resolved
