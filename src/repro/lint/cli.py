"""The ``lint`` subcommand: run orchestration.

Kept separate from :mod:`repro.cli.main` so the engine is usable
without argparse and the CLI stays a thin shell: build a
:class:`~repro.lint.engine.LintConfig` from the parsed flags, run,
render, exit.  The flags themselves are declared in
:mod:`repro.cli.main`, which imports this module only when ``lint``
runs, so the other subcommands never load the engine.
"""

from __future__ import annotations

import argparse
import sys
import textwrap

from ..io import atomic_write_text
from .baseline import Baseline
from .engine import LintConfig, lint_paths
from .reporters import render_json, render_text
from .rules import REGISTRY, all_rule_ids
from .sarif import render_sarif

__all__ = ["cmd_lint"]


def _parse_ids(raw: str | None) -> frozenset[str]:
    if not raw:
        return frozenset()
    return frozenset(part.strip().upper() for part in raw.split(",") if part.strip())


def _list_rules() -> int:
    for rule_id in all_rule_ids():
        cls = REGISTRY[rule_id]
        print(f"{rule_id}  {cls.severity.value:7s}  {cls.name}: {cls.description}")
    return 0


def _print_explanation(rule_id: str) -> None:
    cls = REGISTRY[rule_id]
    doc = textwrap.dedent("    " + (cls.__doc__ or "")).strip()
    print(f"{rule_id} — {cls.name} ({cls.severity.value})")
    print()
    print(doc)
    if cls.fix_hint:
        print()
        print(f"fix: {cls.fix_hint}")
    print()


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()
    select = _parse_ids(args.select)
    explain_id: str | None = None
    if args.explain:
        explain_id = args.explain.strip().upper()
        if explain_id not in REGISTRY:
            raise SystemExit(
                f"lint: unknown rule id {explain_id!r} "
                f"(try --list-rules)"
            )
        _print_explanation(explain_id)
        select = frozenset({explain_id})
    config = LintConfig(
        select=select or None,
        ignore=_parse_ids(args.ignore),
        strict=args.strict,
    )
    baseline = None
    if args.baseline and not args.write_baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load baseline {args.baseline!r}: {exc}") from exc
    try:
        result = lint_paths(
            list(args.paths), config, baseline, cache_path=args.cache
        )
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"lint: {exc}") from exc

    if args.write_baseline:
        Baseline.from_findings(result.findings).save(args.write_baseline)
        print(
            f"adopted {len(result.findings)} finding(s) into {args.write_baseline}"
        )
        return 0

    if args.sarif:
        atomic_write_text(args.sarif, render_sarif(result))

    if args.fmt == "json":
        sys.stdout.write(render_json(result))
    elif args.fmt == "sarif":
        sys.stdout.write(render_sarif(result))
    else:
        sys.stdout.write(render_text(result, show_hints=not args.no_hints))
    return result.exit_code(args.strict)
