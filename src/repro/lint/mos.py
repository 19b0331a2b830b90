"""The Mosaic contract rules (MOS001-MOS013, MOS018-MOS020).

Each rule encodes one invariant the paper states but Python cannot
enforce; the registry in :mod:`repro.lint.rules` exposes them to the
engine.  Rules are heuristic by design — they resolve imports and
scopes, but when a construct is too dynamic to reason about they stay
silent rather than cry wolf (a lint rule that needs routine
suppressions stops being read).
"""

from __future__ import annotations

import ast
import re

from .context import dotted_name
from .findings import Severity
from .rules import Rule, register

__all__ = ["ENUM_TABLES"]

# -- shared lexicons ----------------------------------------------------

#: Terminal identifiers that denote event timestamps or offsets.
_TIME_RE = re.compile(
    r"(^|_)(start|end|time|timestamp|offset|period|duration)s?(_|$)|^t[01]$"
)

#: Terminal identifiers that denote durations, byte counts, or other
#: zero-prone extensive quantities used as denominators.
_DENOM_RE = re.compile(
    r"(^|_)(duration|time|seconds|bytes|total|volume|span|count|size|length|denom|mean)s?(_|$)"
)

#: Enum classes whose dispatches must be exhaustive (MOS003), mapped to
#: their member names.  Resolved from the live taxonomy so the rule can
#: never drift from the code it guards.
def _enum_tables() -> dict[str, frozenset[str]]:
    from ..core.categories import Axis, Category
    from ..darshan.validate import Violation

    return {
        "Violation": frozenset(m.name for m in Violation),
        "Category": frozenset(m.name for m in Category),
        "Axis": frozenset(m.name for m in Axis),
    }


ENUM_TABLES = _enum_tables()

#: Frozen record types (MOS006): class name → defining module.
_PROTECTED_TYPES = {
    "JobMeta": "repro.darshan.records",
    "FileRecord": "repro.darshan.records",
    "CategorizationResult": "repro.core.result",
}

#: Attribute names whose value is known to be a protected record type.
_PROTECTED_ATTRS = {"meta": "JobMeta"}

#: Methods in which a class may assign to ``self``.
_CTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__setstate__"})


def _terminal(dotted: str) -> str:
    return dotted.rpartition(".")[2]


def _dotted_names_in(node: ast.AST) -> set[str]:
    """All dotted Name/Attribute chains inside an expression."""
    found: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)):
            d = dotted_name(n)
            if d:
                found.add(d)
    return found


def _is_max_like_call(node: ast.AST) -> bool:
    """True for ``max(...)`` / ``np.maximum(...)`` / ``np.clip(...)`` —
    expressions that establish a floor and therefore guard a division."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and _terminal(name) in ("max", "maximum", "clip")


# ======================================================================
@register
class WholeTraceLoadRule(Rule):
    """MOS001: whole-trace loads only inside the TraceSource layer.

    ``load_binary``/``load_text``/``load_json`` materialize an entire
    decoded trace.  Since the streaming-corpus refactor, only
    ``repro.darshan.source`` (and the defining io modules) may call
    them; everything else must go through a lazy
    :class:`~repro.darshan.source.TraceSource`, or the bounded-memory
    guarantee of the pipeline silently becomes O(corpus).
    """

    id = "MOS001"
    name = "whole-trace-load"
    description = "load_binary/load_text/load_json outside repro.darshan.source"
    severity = Severity.ERROR
    fix_hint = (
        "iterate a TraceSource (DirectorySource/InMemorySource) or use "
        "load_binary_meta for header-only access"
    )

    _TARGETS = frozenset({"load_binary", "load_text", "load_json"})
    _ALLOWED_MODULES = frozenset(
        {
            "repro.darshan",
            "repro.darshan.source",
            "repro.darshan.io_binary",
            "repro.darshan.io_text",
            "repro.darshan.io_json",
        }
    )

    def _allowed(self) -> bool:
        return self.ctx.module in self._ALLOWED_MODULES

    def on_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._allowed():
            return
        if node.level:
            base = self.ctx._resolve_relative(node.level, node.module)
        else:
            base = node.module or ""
        if not base.startswith("repro.darshan"):
            return
        for alias in node.names:
            if alias.name in self._TARGETS:
                self.report(
                    node,
                    f"import of whole-trace loader {alias.name!r} outside "
                    "the TraceSource layer",
                )

    def on_Call(self, node: ast.Call) -> None:
        if self._allowed():
            return
        qualified = self.ctx.qualify_node(node.func)
        if qualified is None:
            return
        if (
            qualified.startswith("repro.darshan")
            and _terminal(qualified) in self._TARGETS
        ):
            self.report(
                node,
                f"whole-trace load {_terminal(qualified)}() outside the "
                "TraceSource layer",
            )


# ======================================================================
@register
class UnboundedAccumulationRule(Rule):
    """MOS002: no unbounded accumulation into pipeline-scope collections.

    Appending to a module-level collection from inside a function is
    how O(corpus) memory sneaks back into streaming stages: the list
    outlives every call and grows with the corpus.  Streaming state
    must live in bounded per-run structures (dedup refs, counters).
    """

    id = "MOS002"
    name = "unbounded-accumulation"
    description = "append/extend on module-scope collections inside functions"
    severity = Severity.ERROR
    fix_hint = (
        "keep per-run state on a context object with bounded size, or "
        "yield results instead of accumulating them"
    )

    _MUTATORS = frozenset({"append", "extend", "insert", "add", "update", "appendleft"})

    def on_Call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._MUTATORS:
            return
        if not isinstance(func.value, ast.Name):
            return
        if self.ctx.enclosing_function() is None:
            return  # module-level one-time initialization is fine
        name = func.value.id
        if self.ctx.resolves_to_module_scope(name):
            self.report(
                node,
                f"{func.attr}() on module-scope collection {name!r} inside "
                "a function grows without bound across the corpus",
            )


# ======================================================================
@register
class ExhaustiveEnumDispatchRule(Rule):
    """MOS003: dispatches over the corruption/category taxonomies must be
    exhaustive or carry an explicit default.

    A new ``Violation`` or ``Category`` member silently falls through
    any if/elif chain or ``match`` that enumerates members without a
    default — exactly how trace-analysis tools rot when the corruption
    taxonomy grows.
    """

    id = "MOS003"
    name = "exhaustive-enum-dispatch"
    description = "non-exhaustive dispatch over Violation/Category/Axis"
    severity = Severity.ERROR
    fix_hint = (
        "add an else/`case _` default or cover every member of the enum"
    )

    #: Enum classes this rule's dispatch check covers; subclasses
    #: (MOS011) swap in their own taxonomy.
    tables: dict[str, frozenset[str]] = ENUM_TABLES

    # -- if/elif chains -------------------------------------------------
    def on_If(self, node: ast.If) -> None:
        parent = self.ctx.parent()
        if (
            isinstance(parent, ast.If)
            and len(parent.orelse) == 1
            and parent.orelse[0] is node
        ):
            return  # elif continuation; the chain head already handled it
        branches: list[ast.expr] = []
        cur: ast.If | None = node
        final_orelse: list[ast.stmt] = []
        while cur is not None:
            branches.append(cur.test)
            if len(cur.orelse) == 1 and isinstance(cur.orelse[0], ast.If):
                cur = cur.orelse[0]
            else:
                final_orelse = cur.orelse
                cur = None
        if len(branches) < 2 or final_orelse:
            return
        subject: str | None = None
        enum_name: str | None = None
        covered: set[str] = set()
        for test in branches:
            parsed = self._parse_branch(test)
            if parsed is None:
                return  # not an enum dispatch chain
            branch_subject, branch_enum, members = parsed
            if subject is None:
                subject, enum_name = branch_subject, branch_enum
            elif subject != branch_subject or enum_name != branch_enum:
                return
            covered |= members
        assert enum_name is not None
        missing = self.tables[enum_name] - covered
        if missing:
            self.report(
                node,
                f"if/elif over {enum_name} covers {len(covered)} of "
                f"{len(self.tables[enum_name])} members with no else "
                f"(missing: {', '.join(sorted(missing))})",
            )

    def _parse_branch(
        self, test: ast.expr
    ) -> tuple[str, str, set[str]] | None:
        """(subject, enum, members) of one enum-comparison test."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            subject = enum = None
            members: set[str] = set()
            for value in test.values:
                parsed = self._parse_branch(value)
                if parsed is None:
                    return None
                s, e, m = parsed
                if subject is None:
                    subject, enum = s, e
                elif subject != s or enum != e:
                    return None
                members |= m
            if subject is None or enum is None:
                return None
            return subject, enum, members
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        subject_name = dotted_name(test.left)
        if subject_name is None:
            return None
        op = test.ops[0]
        comparator = test.comparators[0]
        if isinstance(op, (ast.Eq, ast.Is)):
            member = self._enum_member(comparator)
            if member is None:
                return None
            return subject_name, member[0], {member[1]}
        if isinstance(op, ast.In) and isinstance(
            comparator, (ast.Tuple, ast.List, ast.Set)
        ):
            enum = None
            members = set()
            for elt in comparator.elts:
                m = self._enum_member(elt)
                if m is None:
                    return None
                if enum is None:
                    enum = m[0]
                elif enum != m[0]:
                    return None
                members.add(m[1])
            if enum is None:
                return None
            return subject_name, enum, members
        return None

    def _enum_member(self, node: ast.AST) -> tuple[str, str] | None:
        """(enum, member) for ``Violation.UNREADABLE``-style accesses."""
        if not isinstance(node, ast.Attribute):
            return None
        base = dotted_name(node.value)
        if base is None:
            return None
        enum = _terminal(base)
        if enum in self.tables and node.attr in self.tables[enum]:
            return enum, node.attr
        return None

    # -- match statements ----------------------------------------------
    def on_Match(self, node: ast.Match) -> None:
        enum_name: str | None = None
        covered: set[str] = set()
        for case in node.cases:
            if self._is_wildcard(case.pattern):
                return  # explicit default
            members = self._pattern_members(case.pattern)
            if members is None:
                return  # not a pure enum dispatch
            enum, names = members
            if enum_name is None:
                enum_name = enum
            elif enum_name != enum:
                return
            covered |= names
        if enum_name is None:
            return
        missing = self.tables[enum_name] - covered
        if missing:
            self.report(
                node,
                f"match over {enum_name} covers {len(covered)} of "
                f"{len(self.tables[enum_name])} members with no `case _` "
                f"(missing: {', '.join(sorted(missing))})",
            )

    @staticmethod
    def _is_wildcard(pattern: ast.pattern) -> bool:
        return isinstance(pattern, ast.MatchAs) and pattern.pattern is None

    def _pattern_members(
        self, pattern: ast.pattern
    ) -> tuple[str, set[str]] | None:
        if isinstance(pattern, ast.MatchValue):
            member = self._enum_member(pattern.value)
            if member is None:
                return None
            return member[0], {member[1]}
        if isinstance(pattern, ast.MatchOr):
            enum = None
            names: set[str] = set()
            for sub in pattern.patterns:
                m = self._pattern_members(sub)
                if m is None:
                    return None
                if enum is None:
                    enum = m[0]
                elif enum != m[0]:
                    return None
                names |= m[1]
            if enum is None:
                return None
            return enum, names
        return None


# ======================================================================
@register
class FloatTimestampEqualityRule(Rule):
    """MOS004: no ``==``/``!=`` on timestamps, offsets, or durations.

    Darshan timestamps survive several float round-trips (binary pack,
    JSON, merging arithmetic); exact equality is a latent
    platform-dependent bug.  Compare with
    :func:`repro.core.thresholds.close_to` instead.
    """

    id = "MOS004"
    name = "float-timestamp-equality"
    description = "exact ==/!= comparison on timestamp-like values"
    severity = Severity.WARNING
    fix_hint = "use repro.core.thresholds.close_to(a, b) with an explicit tolerance"

    def on_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if self._is_exempt(left) or self._is_exempt(right):
                continue
            for side in (left, right):
                name = dotted_name(side)
                if name is not None and _TIME_RE.search(_terminal(name)):
                    self.report(
                        node,
                        f"exact {'==' if isinstance(op, ast.Eq) else '!='} "
                        f"on timestamp-like value {name!r}",
                    )
                    break

    @staticmethod
    def _is_exempt(node: ast.AST) -> bool:
        """Comparisons against strings/None are identity checks, not
        float comparisons."""
        return isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, str)
        )


# ======================================================================
@register
class UnguardedDivisionRule(Rule):
    """MOS005: divisions by durations/byte counts must be guarded.

    Zero-length windows and empty segments are *data* at corpus scale
    (instantaneous Darshan timestamps, all-metadata traces); dividing
    by them must be explicitly handled, not left to ``ZeroDivisionError``
    or a silent NaN.
    """

    id = "MOS005"
    name = "unguarded-division"
    description = "division by a duration/byte-count with no visible guard"
    severity = Severity.WARNING
    fix_hint = (
        "guard the denominator (`x / d if d > 0 else 0.0`, max(d, eps), "
        "or np.where) or raise a typed error"
    )

    def begin_module(self) -> None:
        self._guard_cache: dict[int, set[str]] = {}

    def on_BinOp(self, node: ast.BinOp) -> None:
        if not isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            return
        denom = node.right
        name = dotted_name(denom)
        if name is None:
            return  # calls/expressions as denominators: out of scope
        terminal = _terminal(name)
        if not (
            terminal == "n" or terminal.startswith("n_") or _DENOM_RE.search(terminal)
        ):
            return
        head = name.split(".", 1)[0]
        if head in ("config", "cfg") or name.startswith(("self.config.", "self.cfg.")):
            return  # thresholds are validated positive at construction
        func = self.ctx.enclosing_function()
        scope_node = func if func is not None else self.ctx.tree
        guards = self._guards_for(scope_node)
        if name in guards or terminal in guards:
            return
        self.report(
            node,
            f"division by {name!r} with no guard against a zero-length "
            "window or empty segment",
        )

    def _guards_for(self, scope_node: ast.AST) -> set[str]:
        key = id(scope_node)
        cached = self._guard_cache.get(key)
        if cached is not None:
            return cached
        guards: set[str] = set()
        for n in ast.walk(scope_node):
            if isinstance(n, (ast.If, ast.While, ast.IfExp)):
                guards |= _dotted_names_in(n.test)
            elif isinstance(n, ast.Assert):
                guards |= _dotted_names_in(n.test)
            elif isinstance(n, ast.Compare):
                guards |= _dotted_names_in(n)
            elif isinstance(n, ast.comprehension):
                for if_clause in n.ifs:
                    guards |= _dotted_names_in(if_clause)
            elif isinstance(n, ast.Assign) and (
                _is_max_like_call(n.value)
                or (
                    isinstance(n.value, ast.Constant)
                    and isinstance(n.value.value, (int, float))
                    and n.value.value != 0
                )
            ):
                # assigned from max()/np.maximum()/a nonzero literal:
                # provably bounded away from zero
                for target in n.targets:
                    d = dotted_name(target)
                    if d:
                        guards.add(d)
        # guard names are matched by terminal too, so `self.x` checks
        # guard `x` read through an alias
        guards |= {_terminal(g) for g in guards}
        self._guard_cache[key] = guards
        return guards


# ======================================================================
@register
class FrozenRecordMutationRule(Rule):
    """MOS006: record types are immutable outside their constructors.

    ``JobMeta``/``FileRecord``/``CategorizationResult`` flow through
    the multiprocess pipeline and are shared across passes; in-place
    mutation corrupts dedup weights and cached statistics.  Two layers
    are sanctioned: :mod:`repro.darshan.repair` (operates on deep
    copies by contract) and the ``repro.synth`` generator (it *builds*
    records and owns them exclusively until they are serialized).
    """

    id = "MOS006"
    name = "frozen-record-mutation"
    description = "attribute assignment on JobMeta/FileRecord/CategorizationResult"
    severity = Severity.ERROR
    fix_hint = "build a new record (dataclasses.replace) instead of mutating"

    _ALLOWED_MODULES = frozenset({"repro.darshan.repair"})
    _ALLOWED_PREFIXES = ("repro.synth.",)

    def begin_module(self) -> None:
        self._env_stack: list[dict[str, str]] = [{}]

    # -- type environment ----------------------------------------------
    def on_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._env_stack.append(self._infer_types(node))

    def after_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._env_stack.pop()

    on_AsyncFunctionDef = on_FunctionDef
    after_AsyncFunctionDef = after_FunctionDef

    def _infer_types(self, func: ast.FunctionDef) -> dict[str, str]:
        env: dict[str, str] = {}
        for arg in (
            list(func.args.posonlyargs) + list(func.args.args) + list(func.args.kwonlyargs)
        ):
            if arg.annotation is not None:
                ann = dotted_name(arg.annotation)
                if ann and _terminal(ann) in _PROTECTED_TYPES:
                    env[arg.arg] = _terminal(ann)
        for n in ast.walk(func):
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call):
                callee = dotted_name(n.value.func)
                if callee and _terminal(callee) in _PROTECTED_TYPES:
                    for target in n.targets:
                        if isinstance(target, ast.Name):
                            env[target.id] = _terminal(callee)
            elif isinstance(n, (ast.For, ast.AsyncFor)):
                iter_name = dotted_name(n.iter)
                if (
                    iter_name
                    and _terminal(iter_name) == "records"
                    and isinstance(n.target, ast.Name)
                ):
                    env[n.target.id] = "FileRecord"
        return env

    # -- mutation detection ---------------------------------------------
    def on_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node)

    def on_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)

    def _check_target(self, target: ast.AST, node: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if self.ctx.module in self._ALLOWED_MODULES or self.ctx.module.startswith(
            self._ALLOWED_PREFIXES
        ):
            return
        protected = self._protected_type_of(target.value)
        if protected is None:
            return
        if self._in_own_constructor(target.value, protected):
            return
        self.report(
            node,
            f"mutation of frozen record type {protected}.{target.attr} "
            "outside its constructor",
        )

    def _protected_type_of(self, base: ast.AST) -> str | None:
        """Inferred protected class of the expression being assigned to."""
        if isinstance(base, ast.Name):
            inferred = self._env_stack[-1].get(base.id)
            if inferred is not None:
                return inferred
        if isinstance(base, ast.Attribute):
            if base.attr in _PROTECTED_ATTRS:
                return _PROTECTED_ATTRS[base.attr]
        dotted = dotted_name(base)
        if dotted == "self":
            cls = self._enclosing_class_name()
            if cls in _PROTECTED_TYPES:
                return cls
        return None

    def _enclosing_class_name(self) -> str | None:
        for scope in reversed(self.ctx.scope_stack):
            if scope.kind == "class":
                return getattr(scope.node, "name", None)
        return None

    def _in_own_constructor(self, base: ast.AST, protected: str) -> bool:
        """``self.x = ...`` inside the protected class's own ctor."""
        if dotted_name(base) != "self":
            return False
        if self._enclosing_class_name() != protected:
            return False
        func = self.ctx.enclosing_function()
        return getattr(func, "name", "") in _CTOR_METHODS


# ======================================================================
@register
class PicklableCallableRule(Rule):
    """MOS007: callables shipped to the process pool must be picklable.

    :func:`~repro.parallel.resilient.resilient_imap` pickles its
    function once per worker; a lambda or nested ``def`` raises
    ``PicklingError`` only when ``max_workers > 1`` — i.e. in
    production, never in serial tests.
    """

    id = "MOS007"
    name = "picklable-callable"
    description = "lambda or nested function passed to resilient_imap"
    severity = Severity.ERROR
    fix_hint = (
        "hoist the callable to module level (functools.partial over a "
        "module-level function is fine)"
    )

    _TARGETS = frozenset({"resilient_imap"})

    def on_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        if callee is None or _terminal(callee) not in self._TARGETS:
            return
        fn_arg = self._fn_argument(node)
        if fn_arg is None:
            return
        problem = self._unpicklable_reason(fn_arg)
        if problem:
            self.report(node, problem)

    @staticmethod
    def _fn_argument(node: ast.Call) -> ast.AST | None:
        if node.args:
            return node.args[0]
        for kw in node.keywords:
            if kw.arg == "fn":
                return kw.value
        return None

    def _unpicklable_reason(self, fn_arg: ast.AST) -> str | None:
        if isinstance(fn_arg, ast.Lambda):
            return "lambda passed to the process pool cannot be pickled"
        if isinstance(fn_arg, ast.Call):
            callee = dotted_name(fn_arg.func)
            if callee and _terminal(callee) == "partial" and fn_arg.args:
                return self._unpicklable_reason(fn_arg.args[0])
            return None
        if isinstance(fn_arg, ast.Name):
            name = fn_arg.id
            if self.ctx.name_is_nested_function(name):
                return (
                    f"nested function {name!r} passed to the process pool "
                    "cannot be pickled"
                )
            reason = self._traced_assignment(name)
            if reason:
                return reason
        return None

    def _traced_assignment(self, name: str) -> str | None:
        """Follow one level of local assignment: ``fn = lambda ...`` or
        ``fn = partial(nested, ...)``."""
        func = self.ctx.enclosing_function()
        if func is None:
            return None
        for n in ast.walk(func):
            if not isinstance(n, ast.Assign):
                continue
            for target in n.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    if isinstance(n.value, ast.Lambda):
                        return (
                            f"{name!r} is a lambda and cannot be pickled "
                            "for the process pool"
                        )
                    if isinstance(n.value, ast.Call):
                        return self._unpicklable_reason(n.value)
        return None


# ======================================================================
@register
class InlineThresholdRule(Rule):
    """MOS008: categorization thresholds come from ``core.thresholds``.

    The categorizer/temporality/periodicity/metadata modules implement
    the paper's decision rules; every cutoff they compare against must
    be a named ``MosaicConfig`` field so calibration sweeps and the
    paper's "extended or narrowed" 100 MB rule stay possible.
    """

    id = "MOS008"
    name = "inline-threshold"
    description = "magic-number comparison in a categorization module"
    severity = Severity.WARNING
    fix_hint = "name the threshold as a MosaicConfig field and compare against config"

    _MODULE_SUFFIXES = ("categorizer", "temporality", "periodicity", "metadata")
    #: Structural constants that are not thresholds.
    _ALLOWED = frozenset({0, 1, 2, -1, 0.0, 1.0, -1.0})

    def _applies(self) -> bool:
        leaf = self.ctx.module.rpartition(".")[2]
        return leaf.endswith(self._MODULE_SUFFIXES)

    def on_Compare(self, node: ast.Compare) -> None:
        if not self._applies():
            return
        operands = [node.left, *node.comparators]
        if all(isinstance(o, ast.Constant) for o in operands):
            return  # constant-folded asserts aren't thresholds
        for operand in operands:
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, (int, float))
                and not isinstance(operand.value, bool)
                and operand.value not in self._ALLOWED
            ):
                self.report(
                    node,
                    f"inline threshold {operand.value!r} in a "
                    "categorization decision rule",
                )


# ======================================================================
@register
class SwallowedErrorRule(Rule):
    """MOS009: no bare ``except``; corruption errors only vanish in the
    scan path.

    ``TraceFormatError`` is *data* during the preprocessing scan (it
    feeds the ``Violation.UNREADABLE`` funnel counter) but a bug
    everywhere else; catching it without re-raising outside the scan
    path hides corpus corruption from the funnel.
    """

    id = "MOS009"
    name = "swallowed-error"
    description = "bare except, or TraceFormatError swallowed outside the scan path"
    severity = Severity.ERROR
    fix_hint = (
        "catch a specific exception; re-raise TraceFormatError or count "
        "it via the scan-path funnel"
    )

    _SCAN_PATH_MODULES = frozenset(
        {
            "repro.core.preprocess",
            "repro.core.pipeline",
            "repro.core.stream",
            "repro.darshan.source",
            "repro.cli.main",
            # the fuzz harness *counts* clean rejections: TraceFormatError
            # is its expected outcome, not a swallowed failure
            "repro.fuzz.harness",
            "repro.fuzz.corpus",
        }
    )

    def on_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare except: hides every failure, including corruption")
            return
        caught = {
            _terminal(d)
            for d in _dotted_names_in(node.type)
        }
        if "TraceFormatError" not in caught:
            return
        if self.ctx.module in self._SCAN_PATH_MODULES:
            return
        has_raise = any(isinstance(n, ast.Raise) for n in ast.walk(node))
        if not has_raise:
            self.report(
                node,
                "TraceFormatError swallowed outside the scan path; "
                "corruption must reach the funnel or be re-raised",
            )


# ======================================================================
@register
class PublicApiAnnotationRule(Rule):
    """MOS010: public API functions carry complete type annotations.

    Applies to ``repro.core`` and ``repro.darshan`` (the package's
    typed public surface, shipped with ``py.typed``); every public
    function/method must annotate all parameters and the return type so
    ``mypy --strict`` holds the boundary.
    """

    id = "MOS010"
    name = "public-api-annotations"
    description = "missing parameter/return annotations on a public API function"
    severity = Severity.WARNING
    fix_hint = "annotate every parameter and the return type"

    def _applies(self) -> bool:
        mod = self.ctx.module
        if mod.startswith("repro."):
            return mod.startswith(("repro.core", "repro.darshan"))
        return True  # standalone modules (the fixture corpus) are checked

    def on_FunctionDef(self, node: ast.FunctionDef) -> None:
        if not self._applies() or node.name.startswith("_"):
            return
        # only module-level functions and methods of public classes
        parent = self.ctx.parent()
        if isinstance(parent, ast.ClassDef) and parent.name.startswith("_"):
            return
        if not isinstance(parent, (ast.Module, ast.ClassDef)):
            return  # nested helpers are not public API
        missing: list[str] = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        for i, arg in enumerate(positional):
            if i == 0 and isinstance(parent, ast.ClassDef) and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in (args.vararg, args.kwarg):
            if arg is not None and arg.annotation is None:
                missing.append(f"*{arg.arg}")
        if node.returns is None:
            missing.append("return")
        if missing:
            self.report(
                node,
                f"public function {node.name}() missing annotations: "
                + ", ".join(missing),
            )

    on_AsyncFunctionDef = on_FunctionDef


# ======================================================================
def _failure_kind_table() -> dict[str, frozenset[str]]:
    from ..parallel.retry import FailureKind

    return {"FailureKind": frozenset(m.name for m in FailureKind)}


@register
class ResilienceContractRule(ExhaustiveEnumDispatchRule):
    """MOS011: the resilience layer's contracts hold outside it.

    Two invariants (docs/ROBUSTNESS.md):

    * Dispatches over the :class:`~repro.parallel.retry.FailureKind`
      taxonomy must be exhaustive or carry a default — a new failure
      kind must not silently fall through quarantine/report logic.
    * ``Future.result()`` without a ``timeout`` may block forever on a
      hung worker; outside ``repro.parallel`` (whose resilient executor
      owns deadline handling) every ``.result()`` on a future must
      bound its wait.
    """

    id = "MOS011"
    name = "resilience-contract"
    description = (
        "non-exhaustive FailureKind dispatch, or Future.result() "
        "without a timeout outside repro.parallel"
    )
    severity = Severity.ERROR
    fix_hint = (
        "cover every FailureKind (or add a default); pass "
        "result(timeout=...) — only the resilient executor may wait "
        "unboundedly"
    )

    tables = _failure_kind_table()

    _FUTURE_RE = re.compile(r"(^|_)(fut|future)s?(_|$)")

    def on_Call(self, node: ast.Call) -> None:
        if self.ctx.module.startswith("repro.parallel"):
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "result":
            return
        if node.args or any(kw.arg == "timeout" for kw in node.keywords):
            return
        if self._is_future(func.value):
            self.report(
                node,
                "Future.result() with no timeout can block forever on a "
                "hung worker; pass timeout=... (see docs/ROBUSTNESS.md)",
            )

    def _is_future(self, base: ast.AST) -> bool:
        """Heuristic: the receiver is (or was assigned from) a pool
        future.  Dynamic receivers stay silent rather than cry wolf."""
        if isinstance(base, ast.Call):
            callee = dotted_name(base.func)
            return callee is not None and _terminal(callee) == "submit"
        name = dotted_name(base)
        if name is not None and self._FUTURE_RE.search(_terminal(name)):
            return True
        if isinstance(base, ast.Name):
            func = self.ctx.enclosing_function()
            if func is None:
                return False
            for n in ast.walk(func):
                if not isinstance(n, ast.Assign):
                    continue
                if not (
                    isinstance(n.value, ast.Call)
                    and isinstance(n.value.func, ast.Attribute)
                    and n.value.func.attr == "submit"
                ):
                    continue
                for target in n.targets:
                    if isinstance(target, ast.Name) and target.id == base.id:
                        return True
        return False


# ======================================================================
def _degradation_table() -> dict[str, frozenset[str]]:
    from ..core.governor import DegradationLevel

    return {"DegradationLevel": frozenset(m.name for m in DegradationLevel)}


@register
class InputHardeningRule(ExhaustiveEnumDispatchRule):
    """MOS012: the input-hardening contracts hold (docs/ROBUSTNESS.md).

    Two invariants introduced with the degradation ladder:

    * Dispatches over :class:`~repro.core.governor.DegradationLevel`
      must be exhaustive or carry a default — a new ladder rung must
      not silently fall through report/metric/journal logic.
    * Inside ``repro.darshan`` no ``.read(n)`` may size its allocation
      from an untrusted (header-declared) value: the size must be a
      constant, reference a decode limit/cap/budget, or the call must
      live in the ``_read_exact``/``_read_checked`` chokepoints that
      validate ``n`` against what actually remains.  Believing a length
      field is how the pre-hardening allocation bomb worked.
    """

    id = "MOS012"
    name = "input-hardening"
    description = (
        "non-exhaustive DegradationLevel dispatch, or read() sized by "
        "an untrusted value in repro.darshan"
    )
    severity = Severity.ERROR
    fix_hint = (
        "cover every DegradationLevel (or add a default); size reads "
        "from DecodeLimits and route them through _read_checked"
    )

    tables = _degradation_table()

    #: The sanctioned chokepoints: they validate the requested size
    #: against the bytes actually remaining before allocating.
    _READ_CHOKEPOINTS = frozenset({"_read_exact", "_read_checked"})
    #: Size expressions referencing a declared bound are trusted.
    _BOUNDED_RE = re.compile(r"(^|_)(limit|cap|budget|remaining|max)s?(_|$)")

    def _read_check_applies(self) -> bool:
        mod = self.ctx.module
        if mod.startswith("repro."):
            return mod.startswith("repro.darshan")
        return True  # standalone modules (the fixture corpus) are checked

    def on_Call(self, node: ast.Call) -> None:
        if not self._read_check_applies():
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "read":
            return
        if not node.args:
            return  # whole-file read: bounded by on-disk size, not a header
        size = node.args[0]
        if isinstance(size, ast.Constant):
            return
        enclosing = self.ctx.enclosing_function()
        if getattr(enclosing, "name", "") in self._READ_CHOKEPOINTS:
            return
        for name in _dotted_names_in(size):
            for part in name.split("."):
                if self._BOUNDED_RE.search(part):
                    return
        self.report(
            node,
            "read() sized by an untrusted value allocates whatever a "
            "header declares; route it through _read_checked or bound "
            "it by a DecodeLimits field",
        )


# ======================================================================
@register
class StoreBoundedIORule(Rule):
    """MOS013: the columnar store is mmap'd, never slurped.

    ``repro.columnar`` exists to be zero-copy: every section is viewed
    through one mmap whose geometry and CRCs were validated against
    ``DecodeLimits`` at attach time (docs/COLUMNAR.md).  Materializing
    a store with ``np.load``/``np.fromfile``, or slurping it through an
    argument-less ``.read()`` with no ``DecodeLimits``-derived cap in
    sight, allocates whatever an adversarial file declares before a
    single validation runs — the exact failure mode the attach sequence
    exists to prevent.
    """

    id = "MOS013"
    name = "store-bounded-io"
    description = (
        "whole-store np.load/np.fromfile or unbounded read() in "
        "repro.columnar without a DecodeLimits bound"
    )
    severity = Severity.ERROR
    fix_hint = (
        "view sections through the validated mmap (CorpusStore/attach); "
        "bound any raw read by a DecodeLimits field first"
    )

    #: Calls that materialize a whole file/section in one allocation.
    _SLURP_FUNCS = frozenset(
        {"np.load", "numpy.load", "np.fromfile", "numpy.fromfile"}
    )
    #: Identifiers that evidence a declared bound (same lexicon as the
    #: MOS012 sized-read check).
    _BOUNDED_RE = re.compile(r"(^|_)(limit|cap|budget|remaining|max)s?(_|$)")

    def _applies(self) -> bool:
        mod = self.ctx.module
        if mod.startswith("repro."):
            return mod.startswith("repro.columnar")
        return True  # standalone modules (the fixture corpus) are checked

    def _bounded_enclosing(self) -> bool:
        """True when the enclosing function references any bound-like
        name — a size-vs-cap check before the slurp counts."""
        fn = self.ctx.enclosing_function()
        if fn is None:
            return False
        for name in _dotted_names_in(fn):
            for part in name.split("."):
                if self._BOUNDED_RE.search(part):
                    return True
        return False

    def on_Call(self, node: ast.Call) -> None:
        if not self._applies():
            return
        name = dotted_name(node.func)
        if name in self._SLURP_FUNCS:
            self.report(
                node,
                f"{name}() materializes a whole store section in one "
                "allocation, bypassing the geometry and CRC validation "
                "of the attach path",
            )
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "read"
            and not node.args
            and not self._bounded_enclosing()
        ):
            self.report(
                node,
                "argument-less read() slurps the entire file before any "
                "geometry or CRC validation; check its size against a "
                "DecodeLimits cap first",
            )


# ======================================================================
@register
class DurableWriteRule(Rule):
    """MOS018: persistence modules write through :mod:`repro.io` only.

    Every durable artifact — compiled stores, journals, caches,
    baselines, exports, results — must go through the VFS seam
    (``atomic_write*`` / ``durable_append`` / ``get_io()``), which is
    what makes the crash-consistency guarantees of docs/ROBUSTNESS.md
    ("Storage fault model") enforceable and chaos-testable.  A direct
    ``open(..., "w")`` or ``os.rename``/``os.replace`` in a persistence
    module is a write the storage-chaos suite cannot reach and a crash
    window the atomicity argument does not cover.

    Scope: ``repro.columnar``, ``repro.parallel``, ``repro.lint``,
    ``repro.viz``, ``repro.core``, ``repro.cli``.  The seam itself
    (``repro.io``), the chaos injector (``repro.testing``), the trace
    codecs (``repro.darshan`` writes synthetic fixtures, not durable
    state), and the fuzzer's reproducer dumps (``repro.fuzz``) are out
    of scope.
    """

    id = "MOS018"
    name = "durable-write"
    description = (
        "direct open(w)/os.rename in a persistence module bypasses the "
        "repro.io durability seam"
    )
    severity = Severity.ERROR
    fix_hint = (
        "write through repro.io: atomic_write*/durable_append, or the "
        "active FaultableIO from get_io()"
    )

    #: Module prefixes whose writes are durable artifacts.
    _PERSISTENCE_PREFIXES = (
        "repro.columnar",
        "repro.parallel",
        "repro.lint",
        "repro.viz",
        "repro.core",
        "repro.cli",
    )
    _RENAME_FUNCS = frozenset({"os.rename", "os.replace"})

    def _applies(self) -> bool:
        mod = self.ctx.module
        if mod.startswith("repro."):
            return mod.startswith(self._PERSISTENCE_PREFIXES)
        return True  # standalone modules (the fixture corpus) are checked

    @staticmethod
    def _write_mode(node: ast.Call) -> str | None:
        """The constant mode string when it requests writing, else None."""
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
        if not isinstance(mode, ast.Constant) or not isinstance(
            mode.value, str
        ):
            return None
        if any(flag in mode.value for flag in ("w", "a", "x", "+")):
            return mode.value
        return None

    def on_Call(self, node: ast.Call) -> None:
        if not self._applies():
            return
        name = dotted_name(node.func)
        if name in self._RENAME_FUNCS:
            self.report(
                node,
                f"{name}() publishes an artifact outside the repro.io "
                "seam; use atomic_write* (rename + dir fsync) or the "
                "active FaultableIO",
            )
            return
        if name in ("open", "io.open", "gzip.open"):
            mode = self._write_mode(node)
            if mode is not None:
                self.report(
                    node,
                    f"open(..., {mode!r}) writes durable state directly; "
                    "route it through repro.io (atomic_write*/"
                    "durable_append) so chaos tests cover it",
                )


# ======================================================================
@register
class AsyncBlockingIORule(Rule):
    """MOS019: no blocking I/O in ``repro.service`` coroutines.

    The categorization server runs one asyncio event loop; a single
    blocking call inside a coroutine — a file ``open``, a ``time.sleep``,
    a pipeline run, a durable append — stalls *every* connected client
    for its duration, which is how an async server quietly becomes a
    serial one.  The service's contract is that all blocking work
    crosses the loop boundary through ``run_in_executor`` (passing the
    blocking callable by reference, which this rule does not flag);
    coroutines themselves only await.

    Scope: ``repro.service`` modules (and the standalone fixture
    corpus).  Only calls whose innermost enclosing function is an
    ``async def`` are findings — synchronous helpers in the same module
    are executor-side by construction.
    """

    id = "MOS019"
    name = "async-blocking-io"
    description = (
        "blocking I/O call inside an async def in repro.service stalls "
        "the event loop"
    )
    severity = Severity.ERROR
    fix_hint = (
        "move the blocking call into a sync helper and await "
        "loop.run_in_executor(None, helper, ...)"
    )

    #: Exact qualified callables that block (after import resolution).
    _BLOCKING_EXACT = frozenset(
        {
            "open",
            "io.open",
            "gzip.open",
            "time.sleep",
            "os.open",
            "os.fdopen",
            "os.makedirs",
            "os.mkdir",
            "os.replace",
            "os.rename",
            "os.unlink",
            "os.remove",
            "os.rmdir",
            "os.stat",
            "os.listdir",
            "os.scandir",
            "os.fsync",
            "os.utime",
            "os.truncate",
            "os.path.exists",
            "os.path.isfile",
            "os.path.isdir",
            "os.path.getsize",
            "os.path.getmtime",
        }
    )
    #: Qualified prefixes that are blocking wholesale.
    _BLOCKING_PREFIXES = ("shutil.", "subprocess.", "repro.io.")
    #: Terminal names of repro APIs that are always blocking, wherever
    #: they were imported from (covers method spellings like
    #: ``self._registry.append_line``).
    _BLOCKING_TERMINALS = frozenset(
        {
            "run_pipeline",
            "run_pipeline_store",
            "run_pipeline_stream",
            "compile_corpus",
            "save_results_jsonl",
            "atomic_write",
            "atomic_write_text",
            "atomic_write_bytes",
            "durable_append",
            "append_line",
        }
    )

    def _applies(self) -> bool:
        mod = self.ctx.module
        if mod.startswith("repro."):
            return mod.startswith("repro.service")
        return True  # standalone modules (the fixture corpus) are checked

    def _in_async_function(self) -> bool:
        """True when the innermost function scope is an ``async def``."""
        fn = self.ctx.enclosing_function()
        return isinstance(fn, ast.AsyncFunctionDef)

    def on_Call(self, node: ast.Call) -> None:
        if not self._applies() or not self._in_async_function():
            return
        name = self.ctx.qualify_node(node.func)
        if name is None or name.startswith("asyncio."):
            return
        blocking = (
            name in self._BLOCKING_EXACT
            or name.startswith(self._BLOCKING_PREFIXES)
            or _terminal(name) in self._BLOCKING_TERMINALS
        )
        if blocking:
            self.report(
                node,
                f"{name}() blocks the event loop from inside a "
                "coroutine: every connected client waits while it runs",
            )


# ======================================================================
@register
class UnboundedStreamReadRule(Rule):
    """MOS020: every awaited stream read in ``repro.service`` carries a
    deadline.

    A bare ``await reader.readline()`` (or ``read`` / ``readexactly`` /
    ``readuntil``) waits as long as the peer cares to stall it — the
    slow-loris posture: one client trickling a byte a minute pins a
    coroutine, and enough of them pin the server.  The service's
    admission contract gives every socket read a budget, so each such
    await must be bounded: wrapped in ``asyncio.wait_for(...)`` (which
    makes the read an argument, not a bare await) or executed under an
    ``async with asyncio.timeout(...)`` block.

    Scope: ``repro.service`` modules (and the standalone fixture
    corpus), same as MOS019 — client-side ``http.client`` reads are
    synchronous and socket-timeout-bounded, not this rule's concern.
    """

    id = "MOS020"
    name = "unbounded-stream-read"
    description = (
        "awaited stream read without a deadline in repro.service lets "
        "a slow-loris peer pin the coroutine"
    )
    severity = Severity.ERROR
    fix_hint = (
        "bound the read: await asyncio.wait_for(reader.read...(...), "
        "timeout) or run it under async with asyncio.timeout(...)"
    )

    #: Awaited method names that read from a peer-paced stream.
    _READ_METHODS = frozenset({"read", "readline", "readexactly", "readuntil"})

    def _applies(self) -> bool:
        mod = self.ctx.module
        if mod.startswith("repro."):
            return mod.startswith("repro.service")
        return True  # standalone modules (the fixture corpus) are checked

    def _under_timeout_block(self) -> bool:
        """True inside ``async with asyncio.timeout(...)/timeout_at(...)``."""
        for ancestor in self.ctx.parents():
            if not isinstance(ancestor, ast.AsyncWith):
                continue
            for item in ancestor.items:
                expr = item.context_expr
                if not isinstance(expr, ast.Call):
                    continue
                name = self.ctx.qualify_node(expr.func)
                if name in ("asyncio.timeout", "asyncio.timeout_at"):
                    return True
        return False

    def on_Await(self, node: ast.Await) -> None:
        if not self._applies():
            return
        call = node.value
        if not isinstance(call, ast.Call) or not isinstance(
            call.func, ast.Attribute
        ):
            return
        if call.func.attr not in self._READ_METHODS:
            return
        if self._under_timeout_block():
            return
        self.report(
            node,
            f"await ...{call.func.attr}() has no deadline: a stalled "
            "peer holds this coroutine (and its admission slot) forever",
        )
