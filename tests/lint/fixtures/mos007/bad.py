"""Fixture: unpicklable callable shipped to the process pool (MOS007)."""

from repro.parallel.resilient import resilient_imap


def _double_all(items: list[int]) -> object:
    return list(resilient_imap(lambda x: x * 2, items))
