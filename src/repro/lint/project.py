"""Project-wide index: module graph, symbol resolution, call graph.

The per-module rules see one file at a time; the flow-sensitive rules
(MOS014–MOS017) need to follow a value decoded in ``darshan/`` through
``core/`` to an allocation in ``columnar/``.  :class:`ProjectIndex`
gives them the whole-program facts:

* every parsed module with its :class:`~repro.lint.context.ModuleContext`
  (import table, dotted name) and content hash;
* every function/method, keyed by qualified name
  (``repro.darshan.io_binary._read_checked``), with its parameters,
  raised exception names, referenced identifiers, and call sites;
* each call site resolved — through the import tables, one level of
  re-export chains (``from .io_binary import load_binary`` in an
  ``__init__``), same-module locals, ``self.`` methods, and classes to
  their ``__init__`` — to the qualified name of the project function it
  lands on, plus the lexical facts the rules key on: which exceptions
  guard it (enclosing ``try``) and whether it sits inside a pipeline
  ``stage(...)`` block.

Resolution is deliberately bounded: dynamic dispatch, decorators that
replace callables, and attribute calls on arbitrary objects resolve to
``None`` and the flow rules treat them as opaque.  That keeps the index
cheap (one extra AST walk per module) and the rules free of false
paths.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field

from .context import ModuleContext, dotted_name

__all__ = ["CallSite", "FunctionInfo", "ModuleInfo", "ProjectIndex"]

#: ``with <...>.stage("name"):`` / ``with _stage(...):`` — the pipeline
#: stage-block convention MOS016 keys on.
_STAGE_TERMINAL_RE = re.compile(r"(^|_)stage$")

_MAX_RESOLVE_HOPS = 8


@dataclass(slots=True)
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Dotted callee text with the head resolved through the import
    #: table (``np.empty`` → ``numpy.empty``); None for non-dotted
    #: callees (subscripts, calls-of-calls).
    raw: str | None
    #: Qualified name of the project function this lands on, or None
    #: when the callee is external/dynamic.
    resolved: str | None
    #: Terminal exception names of every ``except`` clause of enclosing
    #: ``try`` statements whose body contains this call.
    guarded_by: frozenset[str]
    #: True when the call sits lexically inside a ``with ...stage(...)``
    #: block of the same function.
    in_stage_block: bool


@dataclass(slots=True)
class FunctionInfo:
    """Per-function facts gathered in one walk."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]
    calls: list[CallSite] = field(default_factory=list)
    #: Every identifier part referenced in the body (``ctx.config.budget``
    #: contributes ``ctx``, ``config``, ``budget``) — the cheap
    #: "does this function mention the governor" predicate.
    ref_parts: set[str] = field(default_factory=set)
    #: Terminal names of exceptions raised directly (``raise
    #: TraceFormatError(...)`` → ``TraceFormatError``; a bare ``raise``
    #: inside a handler re-raises that handler's names).
    raises: set[str] = field(default_factory=set)
    #: Qualified names of functions defined lexically inside this one.
    nested: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module in the index."""

    path: str
    module: str
    tree: ast.Module
    ctx: ModuleContext
    sha: str


def source_hash(source: str) -> str:
    """Content hash used by the warm-run lint cache."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:24]


def _exception_names(handler: ast.ExceptHandler) -> set[str]:
    """Terminal names an ``except`` clause catches (bare → BaseException)."""
    if handler.type is None:
        return {"BaseException"}
    types = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: set[str] = set()
    for t in types:
        dotted = dotted_name(t)
        if dotted:
            names.add(dotted.rsplit(".", 1)[-1])
    return names


def _is_stage_with_item(item: ast.withitem) -> bool:
    expr = item.context_expr
    if not isinstance(expr, ast.Call):
        return False
    dotted = dotted_name(expr.func)
    if not dotted:
        return False
    terminal = dotted.rsplit(".", 1)[-1]
    return bool(_STAGE_TERMINAL_RE.search(terminal))


class _FunctionWalker:
    """Collect calls/refs/raises for one function body.

    Tracks the lexical ``try`` guard stack and ``with ...stage(...)``
    nesting; both reset when descending into a nested ``def`` — code in
    a nested function runs later, outside the guards and stage block
    that surround its definition.
    """

    def __init__(self, index: "ProjectIndex", info: FunctionInfo):
        self.index = index
        self.info = info
        self.guard_stack: list[frozenset[str]] = []
        self.stage_depth = 0
        self.handler_stack: list[frozenset[str]] = []

    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._walk(stmt)

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: its body is indexed as its own FunctionInfo.
            return
        if isinstance(node, ast.Lambda):
            # Lambda bodies run later too, but they cannot contain
            # statements; record refs/calls without guard context.
            saved_guards, saved_stage = self.guard_stack, self.stage_depth
            self.guard_stack, self.stage_depth = [], 0
            self._walk(node.body)
            self.guard_stack, self.stage_depth = saved_guards, saved_stage
            return
        if isinstance(node, ast.Name):
            self.info.ref_parts.add(node.id)
        elif isinstance(node, ast.Attribute):
            self.info.ref_parts.add(node.attr)
        if isinstance(node, ast.Try):
            self._walk_try(node)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._walk_with(node)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node)
        if isinstance(node, ast.Call):
            self._record_call(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _walk_try(self, node: ast.Try) -> None:
        caught: set[str] = set()
        for handler in node.handlers:
            caught |= _exception_names(handler)
        self.guard_stack.append(frozenset(caught))
        for stmt in node.body:
            self._walk(stmt)
        self.guard_stack.pop()
        for handler in node.handlers:
            self.handler_stack.append(frozenset(_exception_names(handler)))
            for stmt in handler.body:
                self._walk(stmt)
            self.handler_stack.pop()
        for stmt in node.orelse:
            self._walk(stmt)
        for stmt in node.finalbody:
            self._walk(stmt)

    def _walk_with(self, node: ast.With | ast.AsyncWith) -> None:
        is_stage = any(_is_stage_with_item(item) for item in node.items)
        for item in node.items:
            self._walk(item.context_expr)
            if item.optional_vars is not None:
                self._walk(item.optional_vars)
        if is_stage:
            self.stage_depth += 1
        for stmt in node.body:
            self._walk(stmt)
        if is_stage:
            self.stage_depth -= 1

    def _record_raise(self, node: ast.Raise) -> None:
        if node.exc is None:
            # Bare re-raise: raises whatever the enclosing handler caught.
            if self.handler_stack:
                self.info.raises |= set(self.handler_stack[-1])
            return
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        dotted = dotted_name(target)
        if dotted:
            self.info.raises.add(dotted.rsplit(".", 1)[-1])

    def _record_call(self, node: ast.Call) -> None:
        raw, resolved = self.index.resolve_expr(self.info, node.func)
        guards: set[str] = set()
        for frame in self.guard_stack:
            guards |= set(frame)
        self.info.calls.append(
            CallSite(
                node=node,
                raw=raw,
                resolved=resolved,
                guarded_by=frozenset(guards),
                in_stage_block=self.stage_depth > 0,
            )
        )


@dataclass(slots=True)
class ProjectIndex:
    """Whole-program view over every parsed module of a lint run."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    by_path: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: callee qualname → caller qualnames (reverse call graph).
    callers: dict[str, set[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, entries: list[tuple[str, str, ast.Module, ModuleContext]]
    ) -> "ProjectIndex":
        """Index ``(path, source, tree, ctx)`` entries in two passes.

        Pass one registers every module, function, and class so pass
        two's call resolution sees the complete symbol table regardless
        of file order.
        """
        index = cls()
        for path, source, tree, ctx in entries:
            mi = ModuleInfo(
                path=path,
                module=ctx.module,
                tree=tree,
                ctx=ctx,
                sha=source_hash(source),
            )
            index.modules[mi.module] = mi
            index.by_path[path] = mi
            index._declare(mi)
        for mi in index.by_path.values():
            index._index_bodies(mi)
        for fn in index.functions.values():
            for call in fn.calls:
                if call.resolved:
                    index.callers.setdefault(call.resolved, set()).add(
                        fn.qualname
                    )
        return index

    # -- pass one: declarations ----------------------------------------
    def _declare(self, mi: ModuleInfo) -> None:
        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{child.name}"
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        module=mi.module,
                        path=mi.path,
                        node=child,
                        params=_param_names(child),
                    )
                    visit(child, qualname)
                elif isinstance(child, ast.ClassDef):
                    qualname = f"{prefix}.{child.name}"
                    self.classes[qualname] = child
                    visit(child, qualname)
                else:
                    visit(child, prefix)

        visit(mi.tree, mi.module)

    # -- pass two: bodies ----------------------------------------------
    def _index_bodies(self, mi: ModuleInfo) -> None:
        for fn in list(self.functions.values()):
            if fn.path != mi.path:
                continue
            for child in ast.iter_child_nodes(fn.node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn.nested[child.name] = f"{fn.qualname}.{child.name}"
            _FunctionWalker(self, fn).walk_body(fn.node.body)

    # -- resolution -----------------------------------------------------
    def resolve_expr(
        self, fn: FunctionInfo, func_expr: ast.AST
    ) -> tuple[str | None, str | None]:
        """(qualified text, resolved project function) of a callee
        expression evaluated inside ``fn``."""
        dotted = dotted_name(func_expr)
        if dotted is None:
            return None, None
        mi = self.by_path[fn.path]
        qualified = mi.ctx.qualify_node(func_expr) or dotted
        candidates = [qualified]
        if "." not in dotted:
            # Unqualified name: nested def, then module-level sibling.
            if dotted in fn.nested:
                candidates.insert(0, fn.nested[dotted])
            enclosing = fn.qualname.rsplit(".", 1)[0]
            candidates.append(f"{enclosing}.{dotted}")
            candidates.append(f"{mi.module}.{dotted}")
        elif dotted.startswith("self.") and dotted.count(".") == 1:
            # self.method() inside a class body.
            parts = fn.qualname.split(".")
            if len(parts) >= 2:
                owner = ".".join(parts[:-1])
                candidates.insert(0, f"{owner}.{dotted[5:]}")
        for candidate in candidates:
            resolved = self.resolve_symbol(candidate)
            if resolved:
                return qualified, resolved
        return qualified, None

    def resolve_symbol(self, qualified: str, _hops: int = 0) -> str | None:
        """Project function a qualified name lands on, or None.

        Follows re-export chains (``repro.darshan.load_binary`` →
        ``from .io_binary import load_binary`` → the definition) and
        maps classes to their ``__init__``.
        """
        if _hops > _MAX_RESOLVE_HOPS:
            return None
        if qualified in self.functions:
            return qualified
        if qualified in self.classes:
            init = f"{qualified}.__init__"
            return init if init in self.functions else None
        mod, _, sym = qualified.rpartition(".")
        if sym and mod in self.modules:
            target = self.modules[mod].ctx.imports.get(sym)
            if target and target != qualified:
                return self.resolve_symbol(target, _hops + 1)
        return None

    def project_hash(self) -> str:
        """Order-independent hash of every indexed file's content."""
        h = hashlib.sha256()
        for path in sorted(self.by_path):
            mi = self.by_path[path]
            h.update(f"{mi.module}={mi.sha}\n".encode("utf-8"))
        return h.hexdigest()[:24]


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)
