"""Fixture: module-level callable via partial for the pool (MOS007 clean)."""

from functools import partial

from repro.parallel.resilient import resilient_imap


def _scale(x: int, factor: int) -> int:
    return x * factor


def _double_all(items: list[int]) -> object:
    return list(resilient_imap(partial(_scale, factor=2), items))
